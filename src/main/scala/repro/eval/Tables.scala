package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.baselines._
import repro.forecast.{HarmonicForecaster, Metrics}
import repro.spark._
import repro.synth.Datasets
import repro.synth.TimeSeriesGen.{Sin, Square, Triangle, Waveform}

/** Harness reproducing each evaluation table (Sec. 4). One method per
  * table; the bench suites and `repro.jobs.TableJob` both call in here.
  * Every table detects through [[SparkDetect.detect]]; Tables 1–5, 7 and 8
  * score through [[EvalSql]], Table 6 forecasts from the detections. Series
  * counts default to 100 per condition (paper: 1000) — see DESIGN.md §4.
  */
object Tables {

  val Tolerances: Seq[Double] = Seq(0.0, 0.02)

  def robust: Detector = new RobustPeriodDetector()

  def singleDetectors: Seq[Detector] = Seq(FindFrequency, SazedMaj, SazedOpt, robust)
  def multiDetectors: Seq[Detector]  = Seq(SiegelDetector, AutoPeriod, WaveletFisher, robust)
  def ablationDetectors: Seq[Detector] =
    Seq(Ablations.HuberFisher, Ablations.HuberSiegelACF, Ablations.NRRobustPeriod, robust)

  /** Shared path: generate → Spark mapPartitions detect → SQL metrics.
    * Detection runs here, as one parallel job whose rows are collected;
    * `det` is a Dataset over those rows, so collecting it starts no job.
    * There are a few score rows per series, so `met` reads them as one
    * partition and its GROUP BY/ORDER BY need no exchange. Collecting
    * first keeps detection parallel: one partition over a lazy (even
    * cached) detection plan would run every detection in its one task
    * unless adaptive execution happened to materialize the cache first.
    */
  def run(spark: SparkSession, series: Seq[Datasets.Series],
          detectors: Seq[Detector]): (Dataset[DetectionRow], DataFrame) = {
    import spark.implicits._
    val rows = SparkDetect.detect(SparkDetect.toDataset(spark, series), detectors).collect()
    val det  = spark.createDataset(rows.toSeq)
    (det, EvalSql.metrics(SparkDetect.score(det.coalesce(1), Tolerances)))
  }

  /** Table 1 — single-period "precision" (top-1 accuracy) on synthetic sin
    * (mild & severe) and the CRAN-like corpus.
    */
  def table1(spark: SparkSession, count: Int = 100): DataFrame = {
    val series = Datasets.singlePeriodSin(count, sigma2 = 0.1, eta = 0.01) ++
      Datasets.singlePeriodSin(count, sigma2 = 2.0, eta = 0.2, seed = 1100) ++
      Datasets.cranLike()
    run(spark, series, singleDetectors)._2
  }

  /** Table 2 — multi-period F1 on synthetic sin (mild & moderate) and the
    * Yahoo-A3/A4-like corpora.
    */
  def table2(spark: SparkSession, count: Int = 100, yahooCount: Int = 40): DataFrame = {
    val series = Datasets.multiPeriod(count, Sin, 0.1, 0.01) ++
      Datasets.multiPeriod(count, Sin, 1.0, 0.1, seed = 2300) ++
      Datasets.yahooLike(yahooCount, a4 = false) ++
      Datasets.yahooLike(yahooCount, a4 = true)
    run(spark, series, multiDetectors)._2
  }

  /** Table 3 — multi-period F1 on square- and triangle-wave synthetics. */
  def table3(spark: SparkSession, count: Int = 100): DataFrame = {
    val series = Datasets.multiPeriod(count, Square, 0.1, 0.01, seed = 3100) ++
      Datasets.multiPeriod(count, Triangle, 0.1, 0.01, seed = 3200)
    run(spark, series, multiDetectors)._2
  }

  /** Table 4 — detected period lists on the six Alibaba-like datasets. */
  def table4(spark: SparkSession): Seq[(String, String, Seq[Int])] = {
    import spark.implicits._
    val (det, _) = run(spark, Datasets.alibabaLike(), multiDetectors)
    det.collect().toSeq
      .sortBy(r => (r.id, r.algo))
      .map(r => (r.cond, r.algo, r.detected.toSeq))
  }

  /** Table 5 — ablations on synthetic sin, σ²=2, η=0.2. */
  def table5(spark: SparkSession, count: Int = 100): DataFrame = {
    val series = Datasets.multiPeriod(count, Sin, 2.0, 0.2, seed = 5100)
    run(spark, series, ablationDetectors)._2
  }

  /** Table 6 — forecast RMSE/MAE with periods from each detector feeding
    * the harmonic forecaster (TBATS substitute) on Yahoo-A4-like data:
    * detection on the first 840 points, forecasts at horizons 84 and 168.
    */
  final case class ForecastRow(algo: String, horizon: Int, rmse: Double, mae: Double)

  private val TrainLen = 840
  private val Horizons = Seq(84, 168)

  def table6(spark: SparkSession, count: Int = 40): DataFrame = {
    import spark.implicits._
    val series = Datasets.yahooLike(count, a4 = true, seed = 6100)
    val train  = series.map(s => s.copy(values = s.values.take(TrainLen)))
    val values = series.map(s => s.id -> s.values).toMap
    val rows = SparkDetect.detect(SparkDetect.toDataset(spark, train), multiDetectors).flatMap { r =>
      val y     = values(r.id)
      val model = HarmonicForecaster.fit(y.take(TrainLen), r.detected.toSeq)
      Horizons.map { h =>
        val pred   = HarmonicForecaster.forecast(model, TrainLen, h)
        val actual = y.slice(TrainLen, TrainLen + h)
        ForecastRow(r.algo, h, Metrics.rmse(pred, actual), Metrics.mae(pred, actual))
      }
    }
    rows.createOrReplaceTempView("forecasts")
    spark.sql(
      """SELECT algo, horizon, AVG(rmse) AS rmse, AVG(mae) AS mae, COUNT(*) AS n
        |FROM forecasts GROUP BY algo, horizon ORDER BY algo, horizon""".stripMargin)
  }

  /** Tables 7 & 8 — average runtime and F1 at series lengths 500, 1000
    * and 2000.
    */
  def table7and8(spark: SparkSession, count: Int = 50): (DataFrame, DataFrame) = {
    val series = Seq(500, 1000, 2000).flatMap { n =>
      Datasets.multiPeriod(count, Sin, 0.1, 0.01, seed = 7000 + n, n = n)
    }
    val (det, met) = run(spark, series, multiDetectors)
    (EvalSql.runtimes(det.coalesce(1)), met)
  }
}
