package repro.rpbench

/** A reported figure: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Per-layer metrics from the spans and counters of a traced run. */
object Layers {

  /** Stage metrics of the RobustPeriod pipeline, per traced series. */
  def pipeline(spans: Seq[Span], detectedSeries: Int): Seq[Metric] = {
    val n = math.max(1, detectedSeries).toDouble
    def of(name: String, level: Int = 0) =
      spans.filter(s => s.name == name && (level == 0 || s.arg == level))
    def ms(name: String, level: Int = 0) = of(name, level).map(_.durNs).sum / 1e6 / n
    def mb(name: String) = of(name).map(_.allocBytes).sum / 1e6 / n
    def ratio(a: Double, b: Double) = if (b > 0) a / b else 0.0
    val self      = Trace.selfNs(spans)
    val ordinates = Trace.counter("huber.ordinates")
    Seq(
      Metric("preprocess.ms", ms("preprocess"), "ms"),
      Metric("preprocess.alloc_mb", mb("preprocess"), "MB"),
      Metric("wavelet.modwt_ms", ms("modwt"), "ms"),
      Metric("wavelet.filter_ms", ms("filter"), "ms"),
      Metric("wavelet.alloc_mb", mb("modwt"), "MB"),
      Metric("variance.ms", ms("variance"), "ms"),
      Metric("huber.ms", ms("huber"), "ms"),
      Metric("huber.level1_ms", ms("huber", level = 1), "ms"),
      Metric("huber.ordinates", ordinates / n, "count"),
      Metric("huber.us_per_ordinate", ratio(of("huber").map(_.durNs).sum / 1e3, ordinates), "us"),
      Metric("huber.wasted_frac", ratio(Trace.counter("huber.wasted_ordinates"), ordinates), "fraction"),
      Metric("huber.alloc_mb", mb("huber"), "MB"),
      Metric("periodogram.vanilla_ms", ms("vanilla"), "ms"),
      Metric("fisher.ms", ms("fisher"), "ms"),
      Metric("fisher.significant_frac",
        ratio(Trace.counter("fisher.significant"), Trace.counter("fisher.tested")), "fraction"),
      Metric("acf.ms", ms("acf"), "ms"),
      Metric("acf.accept_frac",
        ratio(Trace.counter("acf.accepted"), Trace.counter("fisher.significant")), "fraction"),
      Metric("detect.levels", Trace.counter("detect.levels") / n, "count"),
      Metric("detect.levels_skipped", Trace.counter("detect.levels_skipped") / n, "count"),
      Metric("detect.self_ms", of("detect").map(s => self(s.id)).sum / 1e6 / n, "ms"),
    )
  }

  val Baselines: Seq[String] = Seq("Siegel", "AUTOPERIOD", "Wavelet-Fisher", "RobustPeriod")

  /** Mean time per series of each Table 2 detector (0 where not run). */
  def baselines(spans: Seq[Span], series: Int): Seq[Metric] = Baselines.map { b =>
    val ns = spans.filter(_.name == s"baselines.$b").map(_.durNs).sum
    Metric(s"baselines.$b.ms", if (series > 0) ns / 1e6 / series else 0.0, "ms")
  }

  /** Spark stage figures; all zero on the single-thread workloads. */
  final case class SparkStages(detectStageS: Double, sqlStageS: Double, busyFrac: Double,
                               partitionSkew: Double, overheadMsPerSeries: Double)

  val NoSpark: SparkStages = SparkStages(0, 0, 0, 0, 0)

  def spark(s: SparkStages): Seq[Metric] = Seq(
    Metric("spark.detect_stage_s", s.detectStageS, "s"),
    Metric("spark.sql_stage_s", s.sqlStageS, "s"),
    Metric("spark.busy_frac", s.busyFrac, "fraction"),
    Metric("spark.partition_skew", s.partitionSkew, "ratio"),
    Metric("spark.overhead_ms_per_series", s.overheadMsPerSeries, "ms"),
  )
}
