package repro.rpbench

import java.nio.file.Path
import org.apache.spark.sql.SparkSession
import repro.baselines.{Ablations, RobustPeriodDetector}
import repro.core.RobustPeriod
import repro.core.RobustPeriod.Config
import repro.eval.{Scoring, Tables}
import repro.spark.SparkDetect

/** Checks of the benchmark's own arithmetic and of its traced copy of the
  * pipeline. Prints one line per check; the exit code is the failure count.
  */
object SelfTest {

  private var failed = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val pass = try ok catch { case e: Exception => println(s"  error: $e"); false }
    println(s"${if (pass) "PASS" else "FAIL"} $name")
    if (!pass) failed += 1
  }

  def run(workDir: Path): Int = {
    tailRule()
    tracedPipeline()
    pooledF1(workDir)
    println(s"$failed self-test(s) failed")
    failed
  }

  private def tailRule(): Unit = {
    check("tail of 1..100 is 90, at p90, with 10 samples beyond") {
      val t = Stats.tail(scala.util.Random.shuffle((1 to 100).map(_.toDouble)))
      t == Stats.Tail(90.0, 90.0, 100)
    }
    check("tail of 11 samples is the smallest, at p9.09") {
      val t = Stats.tail((11 to 1 by -1).map(_.toDouble))
      t.value == 1.0 && math.abs(t.percentile - 100.0 / 11) < 1e-9 && t.samples == 11
    }
    check("tail of 250 samples has exactly 10 larger samples") {
      val xs = Seq.fill(250)(scala.util.Random.nextDouble())
      val t  = Stats.tail(xs)
      xs.count(_ > t.value) == 10 && t.percentile == 96.0
    }
    check("tail refuses fewer than 11 samples") {
      try { Stats.tail(Seq.fill(10)(1.0)); false } catch { case _: IllegalArgumentException => true }
    }
  }

  private def tracedPipeline(): Unit = {
    val series = Seq(Corpus.mild(4), Corpus.moderate(2), Corpus.yahooA3(1), Corpus.yahooA4(1))
      .flatMap(p => (0 until p.size).map(p.gen))
    // Each detector the workloads run, with the Config it passes to
    // RobustPeriod.detect; spark-table2's traced run relies on the first.
    val detectors = Seq(new RobustPeriodDetector() -> Config(), Ablations.NRRobustPeriod -> DetectWorkload.NRConfig)
    for ((detector, cfg) <- detectors) {
      val label = detector.name
      Trace.clear()
      check(s"traced pipeline equals RobustPeriod.detect on ${series.size} series ($label Config)") {
        series.forall(s => TracedDetect.detect(s.id, s.values, cfg) == RobustPeriod.detect(s.values, cfg))
      }
      check(s"traced periods equal $label's detect on ${series.size} series") {
        series.forall(s => TracedDetect.detect(s.id, s.values, cfg).periods == detector.detect(s.values))
      }
      val ordinates = Trace.counter("huber.ordinates")
      check(s"Huber ordinates ${if (cfg.useHuberPeriodogram) "> 0" else "= 0"} ($label Config)") {
        if (cfg.useHuberPeriodogram) ordinates > 0 else ordinates == 0
      }
    }
    Trace.clear()
  }

  private def pooledF1(workDir: Path): Unit = {
    check("pooled micro-F1 of a hand-scored case") {
      // (20,50,100) vs (20,51,99): tp 3 at ±2%; (20,50,100) vs (33): tp 0, fp 1, fn 3.
      val f1 = Stats.pooledF1(Seq((Seq(20, 51, 99), Seq(20, 50, 100)), (Seq(33), Seq(20, 50, 100))))
      math.abs(f1 - 2.0 * 3 / (2 * 3 + 1 + 3)) < 1e-12
    }
    val spark = SparkSession.builder.master("local[2]").appName("rpbench-selftest")
      .config("spark.ui.enabled", "false").config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "2")
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString).getOrCreate()
    try {
      val corpus = Seq(Corpus.mild(3), Corpus.yahooA4(2)).flatMap(p => (0 until p.size).map(p.gen))
      val (det, met) = Tables.run(spark, corpus, Tables.multiDetectors)
      val rows = det.collect().toSeq
      val sql = met.collect().map(r => (r.getString(0), r.getString(1), r.getDouble(2)) -> r.getDouble(5)).toMap
      for (algo <- Layers.Baselines; cond <- rows.map(_.cond).distinct) {
        check(s"F1 of $algo on $cond agrees with EvalSql.metrics") {
          val mine = rows.filter(r => r.algo == algo && r.cond == cond).map(r => (r.detected.toSeq, r.truth.toSeq))
          math.abs(Stats.pooledF1(mine) - sql((cond, algo, Stats.Tolerance))) < 1e-12
        }
      }
      check("RobustPeriod F1 pooled over the corpus agrees with the Spark score rows") {
        val scores = SparkDetect.score(det, Seq(Stats.Tolerance)).collect().filter(_.algo == "RobustPeriod")
        val counts = scores.map(r => Scoring.Counts(r.tp, r.fp, r.fn, 0)).toSeq
        val mine   = rows.filter(_.algo == "RobustPeriod").map(r => (r.detected.toSeq, r.truth.toSeq))
        math.abs(Stats.pooledF1(mine) - Scoring.aggregate(counts).f1) < 1e-12
      }
      check("EvalSql.metrics has one row per (cond, algo, tolerance)") {
        sql.size == rows.map(_.cond).distinct.size * Layers.Baselines.size * Tables.Tolerances.size
      }
    } finally spark.stop()
  }
}
