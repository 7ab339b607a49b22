package repro.rpbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import repro.baselines.Ablations
import repro.synth.Datasets.Series

/** What a run is told: its seed, how long to measure, whether to trace,
  * and the repository root it runs in. With `setupOnly` the workload stops
  * after set-up: such a JVM only times one more set-up.
  */
final case class RunOptions(seed: Long, seconds: Int, traced: Boolean, root: Path, jvmStartMs: Long,
                            setupOnly: Boolean) {
  def secondsNs: Long = seconds * 1000000000L
  def referenceDir: Path = root.resolve("rpbench/reference")
  def workDir: Path = root.resolve(".bench_build/rpbench")

  /** Seconds from JVM start until now: the set-up time when called just
    * before the first timed series.
    */
  def sinceJvmStartS(): Double = (System.currentTimeMillis() - jvmStartMs) / 1e3
}

/** A run's result. `failures` are series whose detection threw or whose
  * periods differ from the reference; `divergences` are series on which the
  * traced pipeline and `RobustPeriod.detect` disagree.
  */
final case class Outcome(attempted: Int, failures: Seq[String], divergences: Seq[String],
                         endToEnd: Seq[Metric], perLayer: Seq[Metric], spans: Seq[Span],
                         notes: Seq[String])

object Outcome {
  /** What a `setupOnly` run returns: its set-up time alone. */
  def setUp(setupS: Double): Outcome = Outcome(0, Nil, Nil, Seq(Metric("setup_s", setupS, "s")), Nil, Nil, Nil)
}

trait Workload {
  def name: String
  def run(o: RunOptions): Outcome

  /** Every series a run can visit. */
  def pools: Seq[Corpus.Pool]

  /** The detections of one series, by algorithm, computed without Spark:
    * what `--record` writes as the reference.
    */
  def detections(s: Series): Seq[(String, Seq[Int])]
}

/** Entry point. Usage:
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --root <repo> [--setup-only]
  * Main --selftest --root <repo>
  * Main --record --root <repo>
  * }}}
  * A run prints every metric with its unit, then, as its last line, one
  * JSON object: the end-to-end metrics untraced, the per-layer ones traced.
  * With `--setup-only` it prints just one line, `setup_s <seconds>`.
  */
object Main {

  val Workloads: Seq[Workload] = Seq(
    new DetectWorkload("detect-nr-n1000", Ablations.NRRobustPeriod, DetectWorkload.NRConfig, poolSize = 2000,
      warmupSeries = 80, tailSamples = 512),
    SparkWorkload,
  )

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val opts = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    val root = Paths.get(opts.getOrElse("--root", ".")).toAbsolutePath.normalize
    val code =
      if (args.contains("--selftest")) SelfTest.run(root.resolve(".bench_build/rpbench"))
      else if (args.contains("--record")) { Record.run(root.resolve("rpbench/reference")); 0 }
      else {
        val workload = Workloads.find(_.name == opts("--workload")).getOrElse(
          sys.error(s"unknown workload ${opts("--workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
        measure(workload, RunOptions(opts("--seed").toLong, opts("--seconds").toInt,
          opts("--trace") == "1", root, jvmStartMs, setupOnly = args.contains("--setup-only")))
      }
    sys.exit(code)
  }

  private def measure(w: Workload, opts: RunOptions): Int = {
    if (opts.setupOnly) {
      w.run(opts).endToEnd.filter(_.name == "setup_s").foreach(m => println(s"setup_s ${m.value}"))
      return 0
    }
    val calibBefore = calibrate()
    // The calibration kernel is the benchmark's, not part of set-up.
    val o           = opts.copy(jvmStartMs = opts.jvmStartMs + math.round(calibBefore.sum))
    val out         = w.run(o)
    val calibAfter  = calibrate()
    val calibMs     = Stats.median(calibBefore ++ calibAfter)

    println(s"rpbench ${w.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.traced) 1 else 0}")
    val metrics =
      if (o.traced) out.perLayer :+ Metric("host.calib_ms", calibMs, "ms") else out.endToEnd
    (if (o.traced) out.endToEnd.filter(_.name == "setup_s") ++ metrics else metrics).foreach { m =>
      println(f"  ${m.name}%-32s ${m.value}%14.6f ${m.unit}")
    }
    out.notes.foreach(n => println(s"  note: $n"))
    println(f"  host.calib_ms before ${calibBefore.map(c => f"$c%.2f").mkString(" ")}  " +
      f"after ${calibAfter.map(c => f"$c%.2f").mkString(" ")}")
    println(f"  failed_frac ${out.failures.size.toDouble / out.attempted}%.6f " +
      s"(${out.failures.size} of ${out.attempted} series)")
    out.failures.take(10).foreach(f => println(s"  failed: $f"))
    if (o.traced) {
      val path = o.workDir.resolve(s"spans/${w.name}-seed${o.seed}.tsv")
      Trace.write(path, out.spans)
      println(s"  spans: ${out.spans.size} written to ${o.root.relativize(path)}")
    }
    if (out.divergences.nonEmpty) {
      out.divergences.take(10).foreach(d => System.err.println(s"traced pipeline diverged: $d"))
      System.err.println(s"${out.divergences.size} series: traced pipeline != RobustPeriod.detect")
      return 3
    }
    println(resultJson(out, metrics))
    0
  }

  private def resultJson(out: Outcome, metrics: Seq[Metric]): String = {
    val ms = metrics.map { m =>
      s""""${m.name}": {"value": ${jsonNumber(m.value)}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": ${out.failures.isEmpty}, "attempted": ${out.attempted}, """ +
      s""""failed": ${out.failures.size}, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def jsonNumber(v: Double): String =
    if (v.isNaN || v.isInfinite) sys.error(s"metric value $v is not a number") else v.toString

  /** A fixed kernel owned by the benchmark, timed three times: a chain of
    * scalar arithmetic, then a stream of writes through 64 MB (as the
    * detectors stream through freshly allocated arrays). It gives the host's
    * speed at that moment, so that two sets of runs can be compared.
    */
  def calibrate(): Seq[Double] = {
    val buf = new Array[Double](1 << 23)
    (1 to 3).map { _ =>
      val t0  = System.nanoTime()
      var x   = 0.5
      var acc = 0.0
      var i   = 0
      while (i < 10000000) { x = 3.9 * x * (1.0 - x); acc += x; i += 1 }
      var pass = 0
      while (pass < 4) {
        i = 0
        while (i < buf.length) { buf(i) = buf(i) * 0.5 + acc; i += 1 }
        pass += 1
      }
      if (buf(7) == 42.0) println("")
      (System.nanoTime() - t0) / 1e6
    }
  }
}
