package repro.spark

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.execution.{LocalTableScanExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import repro.{Oracle, SparkSpec}
import repro.baselines._
import repro.eval.{Scoring, Tables}
import repro.synth.Datasets
import repro.synth.TimeSeriesGen.Sin

/** Records the Spark partition each detection ran in; finds no periods,
  * at no cost.
  */
final class PartitionProbe(val name: String) extends Detector {
  def detect(x: Array[Double]): Seq[Int] = {
    PartitionProbe.seen.add(TaskContext.get().partitionId())
    Nil
  }
}

object PartitionProbe {
  val seen: java.util.Set[Integer] = ConcurrentHashMap.newKeySet[Integer]()
}

class SparkDetectSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val series = Datasets.multiPeriod(8, Sin, 0.1, 0.01, seed = 1234) ++
    Datasets.singlePeriodSin(8, 0.1, 0.01, seed = 4321)

  private lazy val detectors: Seq[Detector] = Seq(SiegelDetector, Tables.robust)

  private lazy val det = {
    val ds = SparkDetect.toDataset(spark, series)
    SparkDetect.detect(ds, detectors).cache()
  }

  test("distributed detection equals local detection per series") {
    val rows = det.collect()
    assert(rows.length == series.size * detectors.size)
    val bySeries = series.map(s => (s.id, s.cond) -> s).toMap
    rows.foreach { r =>
      val s = bySeries((r.id, r.cond))
      val local = detectors.find(_.name == r.algo).get.detect(s.values)
      assert(r.detected.toSeq == local, s"series ${r.id} algo ${r.algo}")
    }
  }

  test("detection rows carry positive wall-clock timings") {
    assert(det.collect().forall(_.millis > 0))
  }

  test("score rows match local Scoring on every series") {
    val scores = SparkDetect.score(det, Seq(0.0, 0.02)).collect()
    assert(scores.length == series.size * detectors.size * 2)
    val bySeries = series.map(s => (s.id, s.cond) -> s).toMap
    scores.foreach { r =>
      val s = bySeries((r.id, r.cond))
      val local = detectors.find(_.name == r.algo).get.detect(s.values)
      val c = Scoring.score(local, s.truth.toIndexedSeq, r.tol)
      assert((r.tp, r.fp, r.fn) == ((c.tp, c.fp, c.fn)), s"series ${r.id} ${r.algo} tol ${r.tol}")
    }
  }

  test("EvalSql metrics equal DuckDB on the identical SQL (oracle)") {
    import spark.implicits._
    val scores = SparkDetect.score(det, Seq(0.0, 0.02))
    val metricsDf = EvalSql.metrics(scores)
    Oracle.assertEquivalent(metricsDf, EvalSql.MetricsSql, "scores" -> scores.toDF())
  }

  test("EvalSql runtime aggregation equals DuckDB (oracle), timings projected out") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    // Round-trip-safe: replace wall-clock with a deterministic value so the
    // oracle compares exact aggregates.
    val fixed = det.map(r => r.copy(millis = (r.id % 7 + 1).toDouble))
    fixed.createOrReplaceTempView("detections")
    val agg = spark.sql(EvalSql.RuntimeSql)
    Oracle.assertEquivalent(agg, EvalSql.RuntimeSql,
      "detections" -> fixed.toDF().select($"cond", $"algo", $"millis"))
  }

  test("per-condition F1 from SQL matches hand aggregation") {
    val scores = SparkDetect.score(det, Seq(0.02)).collect()
    val sql = EvalSql.metrics(SparkDetect.score(det, Seq(0.02))).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getDouble(5)).toMap
    val conds = series.map(_.cond).distinct
    for (cond <- conds; d <- detectors) {
      val cs = scores.filter(r => r.cond == cond && r.algo == d.name)
        .map(r => Scoring.Counts(r.tp, r.fp, r.fn, 0))
      val expected = Scoring.aggregate(cs.toIndexedSeq).f1
      assert(math.abs(sql((cond, d.name)) - expected) < 1e-9, s"$cond/${d.name}")
    }
  }

  private def parallelism = spark.sparkContext.defaultParallelism

  /** More series than cores, so some partitions hold several. */
  private lazy val many = Datasets.multiPeriod(2 * parallelism + 1, Sin, 0.1, 0.01, seed = 900, n = 500)

  /** Each partition's rows, as positions in `series`. */
  private def partitions(series: Seq[Datasets.Series]): Seq[Seq[Int]] = {
    val pos = series.zipWithIndex.map { case (s, i) => (s.cond, s.id) -> i }.toMap
    SparkDetect.toDataset(spark, series).rdd.glom().collect().toSeq
      .map(_.toSeq.map(r => pos((r.cond, r.id))))
  }

  test("toDataset places series i in partition i mod min(#series, parallelism), in input order") {
    for (series <- Seq(many, many.take(2), many.take(1))) {
      val k = math.min(series.size, parallelism)
      assert(partitions(series) == (0 until k).map(b => series.indices.filter(_ % k == b)))
    }
  }

  private def exchanges(plan: SparkPlan): Seq[SparkPlan] = collect(plan) { case e: Exchange => e }

  test("detection, EvalSql.metrics and EvalSql.runtimes execute without an Exchange") {
    val probe     = Seq(new PartitionProbe("probe"))
    val detection = SparkDetect.detect(SparkDetect.toDataset(spark, many), probe)
    detection.collect()
    assert(exchanges(detection.queryExecution.executedPlan).isEmpty, detection.queryExecution.executedPlan)
    val (det, met) = Tables.run(spark, many, probe)
    assert(det.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec], "collecting det would start a job")
    // Table 7 reads the runtimes of `det` the same way `met` reads its scores.
    for (df <- Seq(met, EvalSql.runtimes(det.coalesce(1)))) {
      assert(df.collect().nonEmpty)
      assert(exchanges(df.queryExecution.executedPlan).isEmpty, df.queryExecution.executedPlan)
    }
  }

  test("collecting only the metrics of Tables.run detects in min(#series, parallelism) partitions, AQE on or off") {
    val aqe  = "spark.sql.adaptive.enabled"
    val prev = spark.conf.getOption(aqe)
    try {
      for (on <- Seq("true", "false")) {
        spark.conf.set(aqe, on)
        PartitionProbe.seen.clear()
        val (_, met) = Tables.run(spark, many, Seq(new PartitionProbe("probe")))
        assert(met.collect().length == Tables.Tolerances.size)
        assert(PartitionProbe.seen.size == math.min(many.size, parallelism), s"$aqe=$on")
      }
    } finally prev match {
      case Some(v) => spark.conf.set(aqe, v)
      case None    => spark.conf.unset(aqe)
    }
  }

  test("an empty series list yields no detection rows and an empty metrics table") {
    val (det, met) = Tables.run(spark, Seq.empty, Tables.multiDetectors)
    assert(det.collect().isEmpty)
    assert(met.collect().isEmpty)
  }
}

class SeriesAssemblySpec extends SparkSpec {

  /** Explode a wide dataset to long format (id, cond, t, value). */
  private def toLong(ds: Dataset[Datasets.Series]): DataFrame = {
    import ds.sparkSession.implicits._
    ds.flatMap(s => s.values.zipWithIndex.map { case (v, t) => (s.id, s.cond, t.toLong, v) })
      .toDF("id", "cond", "t", "value")
  }

  test("assembly row count via SQL matches DuckDB (oracle)") {
    import spark.implicits._
    val series = Datasets.singlePeriodSin(3, 0.1, 0.01, seed = 88, n = 50)
    val long = toLong(SparkDetect.toDataset(spark, series)).cache()
    long.createOrReplaceTempView("longpts")
    val sql = "SELECT id, COUNT(*) AS npts, MIN(CAST(t AS BIGINT)) AS tmin, MAX(CAST(t AS BIGINT)) AS tmax FROM longpts GROUP BY id ORDER BY id"
    val agg = spark.sql(sql)
    Oracle.assertEquivalent(agg, sql, "longpts" -> long.select($"id", $"t"))
  }
}
