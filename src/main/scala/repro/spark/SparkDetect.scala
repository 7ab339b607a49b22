package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.Detector
import repro.eval.Scoring
import repro.synth.Datasets.Series

/** Rows the Spark layer emits; its input rows are `Datasets.Series`. */
final case class DetectionRow(id: Long, cond: String, algo: String,
                              detected: Array[Int], truth: Array[Int], millis: Double)

/** Per-series, per-tolerance match counts — the unit the SQL layer
  * aggregates (and the DuckDB oracle re-aggregates).
  */
final case class ScoreRow(id: Long, cond: String, algo: String, tol: Double,
                          tp: Int, fp: Int, fn: Int, topCorrect: Int)

/** Batch detection driver: the algorithm is per-series, so the Spark
  * parallelization (per the repro guidance) is `mapPartitions` over a
  * `Dataset[Series]` — each partition runs the detectors on its series
  * with no shuffle until evaluation.
  */
object SparkDetect {

  /** `series` in k = min(#series, defaultParallelism) partitions (one
    * empty partition when there are none), series i in partition i mod k,
    * each partition in input order. They are read straight from the
    * driver's list, so no exchange runs before detection.
    */
  def toDataset(spark: SparkSession, series: Seq[Series]): Dataset[Series] = {
    import spark.implicits._
    val rows = series.toIndexedSeq
    val k    = math.max(1, math.min(rows.size, spark.sparkContext.defaultParallelism))
    val bins = (0 until k).map(b => rows.indices.filter(_ % k == b).map(rows))
    spark.createDataset(spark.sparkContext.parallelize(bins, k).flatMap(bin => bin))
  }

  /** Run every detector on every series; wall-clock per detection recorded
    * for the Table 7 runtime study.
    */
  def detect(ds: Dataset[Series], detectors: Seq[Detector]): Dataset[DetectionRow] = {
    import ds.sparkSession.implicits._
    ds.mapPartitions { it =>
      it.flatMap(s => detectors.iterator.map(d => timed(d, s.id, s.cond, s.values, s.truth)))
    }
  }

  /** One detection of `values`, with its wall-clock time in milliseconds. */
  private[spark] def timed(d: Detector, id: Long, cond: String, values: Array[Double],
                           truth: Array[Int]): DetectionRow = {
    val t0  = System.nanoTime()
    val det = d.detect(values)
    val ms  = (System.nanoTime() - t0) / 1e6
    DetectionRow(id, cond, d.name, det.toArray, truth, ms)
  }

  /** Expand detections into per-tolerance score rows. */
  def score(det: Dataset[DetectionRow], tolerances: Seq[Double]): Dataset[ScoreRow] = {
    import det.sparkSession.implicits._
    det.flatMap { r =>
      tolerances.map { tol =>
        val c = Scoring.score(r.detected.toIndexedSeq, r.truth.toIndexedSeq, tol)
        val top = r.truth.headOption.exists(t =>
          Scoring.topOneCorrect(r.detected.toIndexedSeq, t, tol))
        ScoreRow(r.id, r.cond, r.algo, tol, c.tp, c.fp, c.fn, if (top) 1 else 0)
      }
    }
  }
}
