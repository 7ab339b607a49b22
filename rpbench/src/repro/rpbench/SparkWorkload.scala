package repro.rpbench

import scala.jdk.CollectionConverters._
import org.apache.spark.TaskContext
import org.apache.spark.sql.SparkSession
import repro.baselines.{Detector, RobustPeriodDetector}
import repro.core.RobustPeriod.Config
import repro.eval.Tables
import repro.spark.DetectionRow
import repro.synth.Datasets.Series

/** The Table 2 job as deployed: `Tables.run` over `SparkDetect` and
  * `EvalSql` on `local[nproc]`, in passes of a fixed Table 2 mix. Each pass
  * materialises the detections, then collects the SQL metrics.
  */
object SparkWorkload extends Workload {

  val name = "spark-table2"

  // Series per pass from each condition, in Table 2's 100:100:40:40 ratio.
  private val Mix = Seq(
    Corpus.mild(120) -> 20, Corpus.moderate(120) -> 20,
    Corpus.yahooA3(48) -> 8, Corpus.yahooA4(48) -> 8)

  val pools: Seq[Corpus.Pool] = Mix.map(_._1)

  // The tail is taken over the first three passes, so that it is the same
  // percentile on every run.
  private val TailPasses = 3

  def detections(s: Series): Seq[(String, Seq[Int])] = Tables.multiDetectors.map(d => d.name -> d.detect(s.values))

  private final case class Pass(series: Seq[Series], rows: Seq[DetectionRow], failures: Seq[String],
                                detectNs: Long, sqlNs: Long, allocBytes: Long, traced: Boolean,
                                startNs: Long, endNs: Long) {
    def wallNs: Long = detectNs + sqlNs
  }

  /** Times a detector inside its Spark task and keeps its name; the
    * RobustPeriod detector runs as the traced pipeline, so its stages show.
    */
  private final class TimedDetector(d: Detector, ids: Map[Int, Long]) extends Detector {
    val name = d.name
    def detect(x: Array[Double]): Seq[Int] = {
      val id        = ids.getOrElse(Corpus.checksum(x), -1L)
      val partition = Option(TaskContext.get()).map(_.partitionId()).getOrElse(0)
      d match {
        case _: RobustPeriodDetector =>
          TracedDetect.filterPair(id, Config().waveletOrder)
          Trace.span(s"baselines.$name", id, partition)(TracedDetect.detect(id, x, Config()).periods)
        case _ =>
          Trace.span(s"baselines.$name", id, partition)(d.detect(x))
      }
    }
  }

  def run(o: RunOptions): Outcome = {
    val nproc = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("rpbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.sql.warehouse.dir", o.workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    try measure(spark, nproc, o)
    finally spark.stop()
  }

  private def measure(spark: SparkSession, nproc: Int, o: RunOptions): Outcome = {
    val ref    = Corpus.readReference(o.referenceDir.resolve(s"$name.tsv"))
    val orders = Mix.map { case (pool, _) => Corpus.order(pool, o.seed) }
    def nextSeries(scale: Int => Int): Seq[Series] =
      Mix.zip(orders).flatMap { case ((pool, k), order) => Seq.fill(scale(k))(pool.gen(order.next())) }

    // Set-up ends with a warm-up pass on an eighth of the mix (and a
    // traced one when tracing) so that the JIT and Spark's code generation
    // are done.
    runPass(spark, nextSeries(_ / 8), ref, traced = false)
    if (o.traced) runPass(spark, nextSeries(_ / 8), ref, traced = true)
    Trace.clear()
    val setupS = o.sinceJvmStartS()
    if (o.setupOnly) return Outcome.setUp(setupS)

    val passes = scala.collection.mutable.ArrayBuffer.empty[Pass]
    def timedNs = passes.map(_.wallNs).sum
    // Passes alternate traced/untraced in a traced run; the run ends when
    // the next pass would end more than half a pass past the time asked,
    // after at least TailPasses passes.
    while (passes.size < TailPasses ||
           timedNs + passes.last.wallNs / 2 < o.secondsNs) {
      passes += runPass(spark, nextSeries(identity), ref, traced = o.traced && passes.size % 2 == 0)
    }

    val plain    = passes.filterNot(_.traced).toSeq
    val measured = if (o.traced) passes.toSeq else plain
    val series   = measured.flatMap(_.series)
    // A series' latency is its four detections' time, summed.
    def latencies(ps: Seq[Pass]) = ps.flatMap(p => p.rows.groupMapReduce(_.id)(_.millis)(_ + _).values)
    val latency  = latencies(measured)
    val tail     = Stats.tail(latencies(measured.take(TailPasses)))
    val rp       = measured.flatMap(_.rows).filter(_.algo == "RobustPeriod")
    val endToEnd = Seq(
      Metric("series_per_s", series.size / (measured.map(_.wallNs).sum / 1e9), "1/s"),
      Metric("detect_ms_p50", Stats.median(latency), "ms"),
      Metric("detect_ms_tail", tail.value, "ms"),
      Metric("alloc_mb_per_series", measured.map(_.allocBytes).sum / 1e6 / series.size, "MB"),
      Metric("f1_pm2", Stats.pooledF1(rp.map(r => (r.detected.toSeq, r.truth.toSeq))), "fraction"),
      Metric("setup_s", setupS, "s"),
    )

    val spans = Trace.spans
    val perLayer =
      if (!o.traced) Nil
      else {
        val traced   = passes.filter(_.traced).toSeq
        val nTraced  = traced.map(_.series.size).sum
        val detectNs = traced.map(_.detectNs).sum
        // Detector time per Spark partition, for each traced pass.
        val busy = traced.map { p =>
          spans.filter(s => s.name.startsWith("baselines.") && s.startNs >= p.startNs && s.endNs <= p.endNs)
            .groupMapReduce(_.arg)(_.durNs)(_ + _).values
        }
        val stages = Layers.SparkStages(
          detectStageS = Stats.mean(plain.map(_.detectNs / 1e9)),
          sqlStageS = Stats.mean(plain.map(_.sqlNs / 1e9)),
          busyFrac = busy.map(_.sum).sum.toDouble / (detectNs * nproc),
          partitionSkew = Stats.mean(busy.map(b => b.max.toDouble * b.size / b.sum)),
          overheadMsPerSeries = (detectNs - busy.map(_.max).sum) / 1e6 / nTraced)
        val rate = (ps: Seq[Pass]) => ps.map(_.series.size).sum / ps.map(_.wallNs).sum.toDouble
        Layers.pipeline(spans, nTraced) ++ Layers.baselines(spans, nTraced) ++ Layers.spark(stages) :+
          Metric("trace.overhead_frac", 1.0 - rate(traced) / rate(plain), "fraction")
      }
    Outcome(series.size, measured.flatMap(_.failures), Nil, endToEnd, perLayer, spans,
      Seq(f"detect_ms_tail is p${tail.percentile}%.1f of ${tail.samples} samples",
          s"${measured.size} passes of ${Mix.map(_._2).sum} series on local[$nproc], at " +
            measured.map(p => f"${p.series.size / (p.wallNs / 1e9)}%.2f").mkString(" ") + " series/s"))
  }

  private def runPass(spark: SparkSession, series: Seq[Series], ref: Corpus.Reference,
                      traced: Boolean): Pass = {
    val detectors =
      if (!traced) Tables.multiDetectors
      else {
        val ids = series.map(s => Corpus.checksum(s.values) -> s.id).toMap
        Tables.multiDetectors.map(d => new TimedDetector(d, ids))
      }
    val alloc0 = workerAllocation()
    val t0     = System.nanoTime()
    // A detector that throws fails its Spark job: every series of the pass
    // then counts as failed.
    val (rows, sql, t1, t2, error) =
      try {
        val (det, met) = Tables.run(spark, series, detectors)
        val rows = det.collect().toSeq
        val t1   = System.nanoTime()
        val sql  = met.collect().toSeq
        val t2   = System.nanoTime()
        det.unpersist()
        (rows, sql, t1, t2, None)
      } catch {
        case e: Exception => (Nil, Nil, System.nanoTime(), System.nanoTime(), Some(e.toString))
      }
    val alloc1 = workerAllocation()

    // Each series' four detections must match the reference, and the SQL
    // F1 of each condition must equal the one pooled here from the rows.
    val byId = rows.groupBy(_.id)
    val failures = series.flatMap { s =>
      val got = byId.getOrElse(s.id, Nil)
      val problems = error.toSeq ++
        (if (got.size != detectors.size) Seq(s"${got.size} detections, expected ${detectors.size}") else Nil) ++
          got.flatMap(r => ref.mismatch(s, r.algo, r.detected.toSeq))
      if (problems.isEmpty) None else Some(s"series ${s.id}: ${problems.mkString("; ")}")
    }
    val sqlFailures = sql
      .filter(r => r.getString(1) == "RobustPeriod" && r.getDouble(2) == Stats.Tolerance)
      .flatMap { r =>
        val cond   = r.getString(0)
        val pooled = Stats.pooledF1(rows.filter(x => x.cond == cond && x.algo == "RobustPeriod")
          .map(x => (x.detected.toSeq, x.truth.toSeq)))
        if (math.abs(pooled - r.getDouble(5)) < 1e-12) None
        else Some(s"EvalSql F1 ${r.getDouble(5)} for $cond differs from pooled F1 $pooled")
      }
    val allocated = alloc1.map { case (id, b) => b - alloc0.getOrElse(id, 0L) }.sum
    Pass(series, rows, failures ++ sqlFailures, t1 - t0, t2 - t1, allocated, traced, t0, t2)
  }

  /** Bytes allocated so far by each Spark task thread, by thread id. */
  private def workerAllocation(): Map[Long, Long] = {
    val ids = Thread.getAllStackTraces.keySet.asScala.toArray
      .filter(_.getName.startsWith("Executor task launch worker")).map(_.getId)
    ids.zip(Trace.allocatedBytes(ids)).toMap
  }
}
