package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ACF, HPFilter, HuberPeriodogram}
import repro.numerics.DoubleArrays
import repro.synth.TimeSeriesGen._
import scala.util.Random

class FindFrequencySpec extends AnyFunSuite {

  test("detects a clean sine period") {
    val y = Array.tabulate(1000)(t => math.sin(2 * math.Pi * t / 50.0) + 0.05 * new Random(1).nextGaussian())
    val r = FindFrequency.detect(y)
    assert(r.nonEmpty && math.abs(r.head - 50) <= 2, s"got $r")
  }

  test("no period on white noise") {
    val rnd = new Random(2)
    var hits = 0
    (0 until 5).foreach { _ =>
      if (FindFrequency.detect(Array.fill(600)(rnd.nextGaussian())).nonEmpty) hits += 1
    }
    assert(hits <= 1, s"$hits/5 noise hits")
  }

  test("degrades under heavy outliers (the paper's Table 1 finding)") {
    var correct = 0
    (0 until 10).foreach { seed =>
      val y = synthetic(1000, Seq(100), Sin, 2.0, 0.2, seed = 40 + seed)
      val r = FindFrequency.detect(y)
      if (r.nonEmpty && math.abs(r.head - 100) <= 2) correct += 1
    }
    assert(correct <= 5, s"findFrequency unexpectedly robust: $correct/10")
  }

  test("Levinson–Durbin recovers an AR(1) coefficient") {
    val rnd = new Random(3)
    val n = 5000
    val x = new Array[Double](n)
    (1 until n).foreach(i => x(i) = 0.7 * x(i - 1) + rnd.nextGaussian())
    val (coefs, sigma2) = FindFrequency.fitARbyAIC(x, 10)
    assert(coefs.nonEmpty && math.abs(coefs(0) - 0.7) < 0.05, s"φ=${coefs.headOption}")
    assert(sigma2 > 0.8 && sigma2 < 1.2)
  }

  test("AR fit on constant series does not crash") {
    val (coefs, _) = FindFrequency.fitARbyAIC(Array.fill(100)(2.0), 10)
    assert(coefs.isEmpty)
  }

  test("too-short input returns empty") {
    assert(FindFrequency.detect(Array(1.0, 2.0, 3.0, 4.0)).isEmpty)
  }
}

class SazedSpec extends AnyFunSuite {

  private def cleanSine(n: Int, t0: Int): Array[Double] =
    Array.tabulate(n)(t => math.sin(2 * math.Pi * t / t0))

  test("S component: spectral argmax period") {
    assert(Sazed.spectral(cleanSine(1000, 50)).contains(50))
  }

  test("A component: largest local ACF maximum") {
    val got = Sazed.acfPeak(ACF.biased(cleanSine(1000, 40))).get
    assert(math.abs(got - 40) <= 1, s"got $got")
  }

  test("Z component: zero-crossing distance") {
    val got = Sazed.zeroCrossing(cleanSine(1000, 40)).get
    assert(math.abs(got - 40) <= 2, s"got $got")
  }

  test("six candidates are produced on periodic data") {
    val x = cleanSine(1200, 60)
    assert(Sazed.candidates(x, ACF.biased(x)).size >= 4)
  }

  test("clusters group nearby candidates") {
    val cl = Sazed.clusters(Seq(40, 41, 40, 100))
    assert(cl.exists { case (c, s) => s == 3 && math.abs(c - 40) <= 1 })
    assert(cl.exists { case (c, s) => s == 1 && c == 100 })
  }

  for (t0 <- Seq(24, 60, 120)) {
    test(s"SAZED_maj and SAZED_opt find T=$t0 on mildly noisy sine") {
      val rnd = new Random(t0)
      val y = Array.tabulate(1200)(t => math.sin(2 * math.Pi * t / t0) + 0.2 * rnd.nextGaussian())
      val maj = SazedMaj.detect(y)
      val opt = SazedOpt.detect(y)
      assert(maj.nonEmpty && math.abs(maj.head - t0) <= math.max(1, t0 / 25), s"maj $maj")
      assert(opt.nonEmpty && math.abs(opt.head - t0) <= math.max(1, t0 / 25), s"opt $opt")
    }
  }

  test("acfEvidence is higher for the true period than a wrong one") {
    val y = cleanSine(1000, 50)
    val a = repro.core.ACF.biased(y)
    assert(Sazed.acfEvidence(a, 50) > Sazed.acfEvidence(a, 37))
  }
}

class SiegelSpec extends AnyFunSuite {

  test("detects two well-separated periods") {
    val y = Array.tabulate(1000)(t =>
      math.sin(2 * math.Pi * t / 20.0) + math.sin(2 * math.Pi * t / 125.0))
    val r = SiegelDetector.detect(y)
    assert(r.exists(p => math.abs(p - 20) <= 1), s"missing 20 in $r")
    assert(r.exists(p => math.abs(p - 125) <= 4), s"missing 125 in $r")
  }

  test("clusters leakage bins instead of emitting runs of periods") {
    val y = Array.tabulate(1000)(t => math.sin(2 * math.Pi * t / 48.0))
    val r = SiegelDetector.detect(y)
    assert(r.count(p => math.abs(p - 48) <= 5) <= 2, s"leakage run: $r")
  }

  test("limited false positives on white noise (Siegel is known FP-prone)") {
    val rnd = new Random(4)
    var total = 0
    (0 until 5).foreach(_ => total += SiegelDetector.detect(Array.fill(500)(rnd.nextGaussian())).size)
    assert(total <= 15, s"$total noise periods")
  }

  test("caps output at maxPeriods") {
    val rnd = new Random(5)
    val y = Array.tabulate(2000)(t => (1 to 30).map(k => math.sin(2 * math.Pi * k * t / 600.0)).sum + 0.01 * rnd.nextGaussian())
    assert(SiegelDetector.detect(y).size <= 10)
  }
}

class AutoPeriodSpec extends AnyFunSuite {

  test("detects a clean sine and refines on the ACF") {
    val rnd = new Random(6)
    val y = Array.tabulate(1000)(t => math.sin(2 * math.Pi * t / 100.0) + 0.1 * rnd.nextGaussian())
    val r = AutoPeriod.detect(y)
    assert(r.exists(p => math.abs(p - 100) <= 2), s"got $r")
  }

  test("hill validation accepts true period, rejects ACF valley") {
    val y = Array.tabulate(1000)(t => math.sin(2 * math.Pi * t / 100.0))
    val acf = repro.core.ACF.biased(y)
    assert(AutoPeriod.hillValidate(acf, 100.0, 1000).exists(p => math.abs(p - 100) <= 2))
    // Period 50 is an ACF *minimum* for a pure T=100 sine.
    assert(AutoPeriod.hillValidate(acf, 50.0, 1000).isEmpty)
  }

  test("permutation threshold silences white noise") {
    val rnd = new Random(7)
    var total = 0
    (0 until 5).foreach(_ => total += AutoPeriod.detect(Array.fill(400)(rnd.nextGaussian())).size)
    assert(total <= 2, s"$total noise periods")
  }

  test("deterministic across calls (seeded permutations)") {
    val y = synthetic(800, Seq(40), Sin, 0.3, 0.02, seed = 9)
    assert(AutoPeriod.detect(y) == AutoPeriod.detect(y))
  }

  /** The permutation threshold as first written: `Random.shuffle` of a
    * boxed copy and a vanilla periodogram per permutation. The paired
    * in-place version must draw the same shuffles bit for bit; it takes
    * the maxima from one transform per pair of shuffles, so they match
    * the oracle's to rounding only.
    */
  private class ShuffleOracle(seed: Long) extends AutoPeriod(seed) {
    def shuffles(x: Array[Double]): Array[Array[Double]] = {
      val rnd = new Random(seed)
      Array.fill(100)(rnd.shuffle(x.toVector).toArray)
    }
    def maxima(x: Array[Double]): Array[Double] = shuffles(x).map { s =>
      val ps = HuberPeriodogram.vanilla(s)
      (1 to s.length / 2).map(ps(_)).foldLeft(0.0)(math.max)
    }
    override protected def detectDetrended(x: Array[Double]): Seq[Int] = {
      val m = maxima(x).sorted
      candidatesValidated(HuberPeriodogram.vanilla(x).take(x.length / 2 + 1),
        ACF.biased(x), x.length, m(math.min(99, (0.99 * 100).toInt)))
    }
  }

  // Median bytes of one call at n = 1000, measured as in the test below on
  // the version that ran one transform per shuffle (100 transforms).
  private val OneTransformPerShuffleBytes = 1620904L

  private def bits(a: Array[Double]): Seq[Long] = a.map(java.lang.Double.doubleToRawLongBits).toSeq

  // 1009 is prime, so JTransforms takes its Bluestein path.
  for (n <- Seq(1000, 1680, 999, 1009); seed <- Seq(7L, 1L, 2024L)) {
    test(s"in-place permutations equal Random.shuffle bit for bit (n=$n, seed=$seed)") {
      val y      = synthetic(n, Seq(20, 50), Sin, 1.0, 0.1, seed = seed + n)
      val oracle = new ShuffleOracle(seed)
      val want   = oracle.shuffles(y)
      val rnd    = new Lcg48(seed)
      val buf    = new Array[Double](2 * n)
      (0 until 50).foreach { p =>
        AutoPeriod.shufflePair(y, rnd, buf)
        assert(bits(Array.tabulate(n)(t => buf(2 * t))) == bits(want(2 * p)), s"shuffle ${2 * p}")
        assert(bits(Array.tabulate(n)(t => buf(2 * t + 1))) == bits(want(2 * p + 1)), s"shuffle ${2 * p + 1}")
      }
      val wantMax = oracle.maxima(y)
      val got     = new AutoPeriod(seed).permutationMaxima(y)
      assert(got.length == 100)
      got.indices.foreach { i =>
        assert(math.abs(got(i) - wantMax(i)) <= 1e-13 * wantMax(i), s"maximum $i: ${got(i)} vs ${wantMax(i)}")
      }
      assert(new AutoPeriod(seed).detect(y) == oracle.detect(y))
    }
  }

  test("the threshold is the largest of the permutation maxima") {
    val ys = Seq(synthetic(1000, Seq(20, 50), Sin, 1.0, 0.1, seed = 31),
                 synthetic(1680, Seq(12, 24, 168), Sin, 0.1, 0.01, seed = 32),
                 synthetic(999, Seq(40), Sin, 0.3, 0.02, seed = 33))
    for (y <- ys; seed <- Seq(7L, 2024L)) {
      val h  = HPFilter.detrend(y)
      val m  = DoubleArrays.sum(h) / h.length
      val d  = DoubleArrays.map(h)(_ - m)
      val ap = new AutoPeriod(seed)
      val want = ap.candidatesValidated(HuberPeriodogram.vanilla(d), ACF.biased(d), d.length,
        ap.permutationMaxima(d).max)
      assert(want.nonEmpty)
      assert(ap.detect(y) == want, s"n=${y.length}, seed=$seed")
    }
  }

  test("permutationMaxima allocates at most 0.6 of the one-transform-per-shuffle figure (n=1000)") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val y  = synthetic(1000, Seq(20, 50), Sin, 1.0, 0.1, seed = 34)
    val ap = new AutoPeriod(7)
    (0 until 40).foreach(_ => ap.permutationMaxima(y))
    val bytes = (0 until 7).map { _ =>
      val b0 = threads.getCurrentThreadAllocatedBytes
      ap.permutationMaxima(y)
      threads.getCurrentThreadAllocatedBytes - b0
    }.sorted
    val median = bytes(bytes.length / 2)
    assert(median <= 0.6 * OneTransformPerShuffleBytes, s"$median bytes per call, runs ${bytes.mkString(",")}")
  }

  // Powers of two take the multiply branch; bounds above 2^30 reject about
  // half their draws, so the rejection loop runs often.
  private val LcgBounds = Seq(1, 2, 4, 64, 1024, 1 << 30, 3, 1000, 1680,
    (1 << 30) + 1, Int.MaxValue - 1, Int.MaxValue)

  for (seed <- Seq(7L, 0L, -1L, 2024L)) {
    test(s"Lcg48.nextInt equals java.util.Random.nextInt (seed=$seed)") {
      val want = new java.util.Random(seed)
      val got  = new Lcg48(seed)
      LcgBounds.foreach { b =>
        (0 until 2000).foreach(i => assert(got.nextInt(b) == want.nextInt(b), s"bound $b, draw $i"))
      }
      (0 until 20000).foreach { i =>
        val b = LcgBounds(i % LcgBounds.length)
        assert(got.nextInt(b) == want.nextInt(b), s"interleaved draw $i")
      }
    }
  }
}

class WaveletFisherSpec extends AnyFunSuite {

  test("detects a single sine period within its octave") {
    val rnd = new Random(8)
    val y = Array.tabulate(1024)(t => math.sin(2 * math.Pi * t / 32.0) + 0.1 * rnd.nextGaussian())
    val r = WaveletFisher.detect(y)
    assert(r.exists(p => math.abs(p - 32) <= 4), s"got $r")
  }

  test("multi-period input: short period found (long periods are DWT's known weakness)") {
    val y = Array.tabulate(1024)(t =>
      math.sin(2 * math.Pi * t / 16.0) + math.sin(2 * math.Pi * t / 128.0))
    val r = WaveletFisher.detect(y)
    assert(r.nonEmpty, s"got $r")
    assert(r.exists(p => math.abs(p - 16) <= 3), s"missing 16 in $r")
  }

  test("mostly silent on white noise") {
    val rnd = new Random(9)
    var total = 0
    (0 until 5).foreach(_ => total += WaveletFisher.detect(Array.fill(512)(rnd.nextGaussian())).size)
    assert(total <= 4, s"$total noise periods")
  }

  test("short series returns empty, no crash") {
    assert(WaveletFisher.detect(Array.fill(20)(1.0)).isEmpty)
  }
}

class AblationsSpec extends AnyFunSuite {

  test("Huber-Fisher finds the single dominant period") {
    val y = synthetic(1000, Seq(100), Sin, 0.5, 0.05, seed = 10)
    val r = Ablations.HuberFisher.detect(y)
    assert(r.size <= 1)
    assert(r.exists(p => math.abs(p - 100) <= 3), s"got $r")
  }

  test("Huber-Fisher on multi-period data returns at most one period (no MODWT)") {
    val y = synthetic(1000, Seq(20, 50, 100), Sin, 0.1, 0.01, seed = 11)
    assert(Ablations.HuberFisher.detect(y).size <= 1)
  }

  test("Huber-Siegel-ACF can return multiple periods") {
    val y = synthetic(1000, Seq(20, 100), Sin, 0.1, 0.01, seed = 12)
    val r = Ablations.HuberSiegelACF.detect(y)
    assert(r.nonEmpty, s"got $r")
  }

  test("NR-RobustPeriod works on clean data") {
    val y = synthetic(1000, Seq(20, 50, 100), Sin, 0.1, 0.0, seed = 13, trendAmp = 0.0)
    val r = Ablations.NRRobustPeriod.detect(y)
    val hit = Seq(20, 50, 100).count(t => r.exists(d => math.abs(d - t) <= math.max(1, t / 50)))
    assert(hit >= 2, s"NR got $r")
  }

  test("robust beats non-robust under severe outliers (the ablation's point)") {
    var robustHits = 0; var nrHits = 0
    (0 until 5).foreach { seed =>
      val y = synthetic(1000, Seq(20, 50, 100), Sin, 2.0, 0.2, seed = 900 + seed)
      val rr = new RobustPeriodDetector().detect(y)
      val nr = Ablations.NRRobustPeriod.detect(y)
      robustHits += Seq(20, 50, 100).count(t => rr.exists(d => math.abs(d - t) <= math.max(1, 0.02 * t)))
      nrHits     += Seq(20, 50, 100).count(t => nr.exists(d => math.abs(d - t) <= math.max(1, 0.02 * t)))
    }
    assert(robustHits >= nrHits, s"robust $robustHits vs NR $nrHits")
  }
}
