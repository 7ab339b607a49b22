package repro.rpbench

import repro.baselines.Detector
import repro.core.RobustPeriod
import repro.core.RobustPeriod.{Config, Result}
import repro.synth.Datasets.Series

/** Closed loop, one caller thread: a detector's public `detect` on series
  * after series of a pool, in chunks of eight. The clock runs only while
  * the program detects; the benchmark generates each chunk of inputs with
  * the clock stopped. Throughput is every timed series over the whole
  * timed wall clock. An untraced run goes on past `--seconds` until it has
  * timed `tailSamples` series, and takes the tail over the first
  * `tailSamples`: the same percentile on every run, however fast.
  *
  * `cfg` is the `Config` under which `detector` runs `RobustPeriod.detect`:
  * the traced run rebuilds the pipeline with it, and the self-test checks
  * that the rebuilt pipeline returns the detector's periods.
  */
final class DetectWorkload(val name: String, val detector: Detector, val cfg: Config, poolSize: Int,
                           warmupSeries: Int, tailSamples: Int) extends Workload {

  private val Chunk = 8

  val pools: Seq[Corpus.Pool] = Seq(Corpus.mild(poolSize))

  def detections(s: Series): Seq[(String, Seq[Int])] = Seq(detector.name -> detector.detect(s.values))

  private def attempt[A](r: => A): Either[String, A] =
    try Right(r) catch { case e: Exception => Left(e.toString) }

  def run(o: RunOptions): Outcome = {
    val pool  = pools.head
    val order = Corpus.order(pool, o.seed)
    val ref   = Corpus.readReference(o.referenceDir.resolve(s"$name.tsv"))
    def nextSeries(): Series = pool.gen(order.next())

    // Set-up ends with a JIT warm-up on the run's first series, through
    // the same calls as the timed series that follow.
    Seq.fill(warmupSeries)(nextSeries()).foreach { s =>
      if (o.traced) TracedDetect.detect(s.id, s.values, cfg)
      detector.detect(s.values)
    }
    Trace.clear()
    val setupS = o.sinceJvmStartS()
    if (o.setupOnly) return Outcome.setUp(setupS)

    val lat      = scala.collection.mutable.ArrayBuffer.empty[Double]
    val pairs    = scala.collection.mutable.ArrayBuffer.empty[(Seq[Int], Seq[Int])]
    val failures = scala.collection.mutable.ArrayBuffer.empty[String]
    val diverged = scala.collection.mutable.ArrayBuffer.empty[String]
    var timedNs   = 0L
    var allocated = 0L
    var tracedNs  = 0L
    while (timedNs < o.secondsNs || (!o.traced && lat.length < tailSamples)) {
      val chunk = Vector.fill(Chunk)(nextSeries())
      val a0 = Trace.allocatedBytes()
      val c0 = System.nanoTime()
      chunk.foreach { s =>
        // Traced: the rebuilt pipeline first, then the detector's own
        // detect, which must return the same periods; the rebuilt Result
        // must also equal RobustPeriod.detect's (called untimed).
        val traced =
          if (!o.traced) None
          else {
            TracedDetect.filterPair(s.id, cfg.waveletOrder)
            val t0 = System.nanoTime()
            val r  = attempt(TracedDetect.detect(s.id, s.values, cfg))
            tracedNs += System.nanoTime() - t0
            Some(r)
          }
        val t0    = System.nanoTime()
        val plain = attempt(detector.detect(s.values))
        lat += (System.nanoTime() - t0) / 1e6
        plain match {
          case Right(periods) =>
            pairs += ((periods, s.truth.toSeq))
            ref.mismatch(s, detector.name, periods).foreach(failures += _)
          case Left(err) => failures += s"series ${s.id}: $err"
        }
        traced.foreach { t =>
          val program = attempt(RobustPeriod.detect(s.values, cfg))
          if (t != program || t.map(_.periods) != plain)
            diverged += s"series ${s.id}: traced pipeline $t, RobustPeriod.detect $program, " +
              s"${detector.name} $plain"
        }
      }
      timedNs   += System.nanoTime() - c0
      allocated += Trace.allocatedBytes() - a0
    }

    val n    = lat.length
    val tail = Stats.tail(lat.take(tailSamples).toSeq)
    val endToEnd = Seq(
      Metric("series_per_s", n / (timedNs / 1e9), "1/s"),
      Metric("detect_ms_p50", Stats.median(lat.toSeq), "ms"),
      Metric("detect_ms_tail", tail.value, "ms"),
      Metric("alloc_mb_per_series", allocated / 1e6 / n, "MB"),
      Metric("f1_pm2", Stats.pooledF1(pairs.toSeq), "fraction"),
      Metric("setup_s", setupS, "s"),
    )
    val spans = Trace.spans
    val perLayer =
      if (!o.traced) Nil
      else Layers.pipeline(spans, n) ++ Layers.baselines(Nil, 0) ++ Layers.spark(Layers.NoSpark) :+
        Metric("trace.overhead_frac", 1.0 - lat.sum * 1e6 / tracedNs, "fraction")
    Outcome(n, failures.toSeq, diverged.toSeq, endToEnd, perLayer, spans,
      Seq(f"detect_ms_tail is p${tail.percentile}%.1f of ${tail.samples} samples"))
  }
}

object DetectWorkload {

  /** The `Config` of `Ablations.NRRobustPeriod`: vanilla periodogram and
    * plain variance. The self-test checks that it reproduces that detector.
    */
  val NRConfig: Config = Config(useHuberPeriodogram = false, useRobustVariance = false)
}
