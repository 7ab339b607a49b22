package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.synth.Datasets
import repro.synth.TimeSeriesGen.Sin
import repro.wavelet.MODWT

class HuberPeriodogramSpec extends AnyFunSuite {

  /** The production solver at one ordinate. */
  private def huberAt(x: Array[Double], k: Int, zeta: Double, maxIter: Int = 50): Double =
    HuberPeriodogram.spliced(x, (k, k), zeta, maxIter)(k)

  test("vanilla periodogram peaks exactly at the sine frequency bin") {
    val n = 400
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 8 * t / n))
    val p = HuberPeriodogram.vanilla(x)
    val kb = (1 to n / 2).maxBy(p(_))
    assert(kb == 8)
    assert(math.abs(p(8) - n / 4.0) < 1e-6) // |X|²/n = (n/2)²/n
  }

  test("vanilla periodogram of zeros is zero") {
    assert(HuberPeriodogram.vanilla(Array.fill(64)(0.0)).forall(_ == 0.0))
  }

  for (k <- Seq(3, 10, 31, 77)) {
    test(s"Huber with huge ζ equals least squares equals vanilla (k=$k)") {
      val rnd = new Random(k)
      val n = 256
      val x = Array.fill(n)(rnd.nextGaussian())
      val pv = HuberPeriodogram.vanilla(x)(k)
      val ph = huberAt(x, k, zeta = 1e9)
      assert(math.abs(ph - pv) < 1e-6 * math.max(1.0, pv), s"$ph vs $pv")
    }
  }

  test("Huber-periodogram of clean sine matches vanilla at the peak") {
    val n = 512
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 16 * t / n))
    val pv = HuberPeriodogram.vanilla(x)(16)
    val ph = huberAt(x, 16, zeta = 1.345)
    // Clean data: all residuals inside ζ, so Huber ≈ LS.
    assert(math.abs(ph - pv) / pv < 0.05, s"$ph vs $pv")
  }

  test("Huber-periodogram resists outliers far better than vanilla") {
    val n = 512
    val clean = Array.tabulate(n)(t => math.sin(2 * math.Pi * 16 * t / n))
    val dirty = clean.clone()
    val rnd = new Random(3)
    (0 until 25).foreach(_ => dirty(rnd.nextInt(n)) += 20.0 * (if (rnd.nextBoolean()) 1 else -1))
    val peakClean = HuberPeriodogram.vanilla(clean)(16)
    // Vanilla off-peak floor rises sharply with outliers; Huber's stays low.
    def offPeakMax(p: Int => Double): Double =
      (1 to n / 2).filter(k => math.abs(k - 16) > 3).map(p).max
    val van = HuberPeriodogram.vanilla(dirty)
    val vanOff = offPeakMax(van(_))
    val hub = HuberPeriodogram.huberFull(dirty, 1.345, 50)
    val hubOff = offPeakMax(hub(_))
    assert(hubOff < vanOff, s"huber off-peak $hubOff vs vanilla $vanOff")
    // And the Huber peak stays within 40% of the clean peak.
    val hubPeak = hub(16)
    assert(math.abs(hubPeak - peakClean) / peakClean < 0.4, s"$hubPeak vs $peakClean")
  }

  test("degenerate frequencies (k=0, Nyquist) fall back without NaN") {
    val rnd = new Random(5)
    val x = Array.fill(64)(rnd.nextGaussian())
    val p  = HuberPeriodogram.spliced(x, (0, 32), 1.345, 50)
    val vn = HuberPeriodogram.vanilla(x)
    val p0 = p(0); val pN = p(32)
    assert(!p0.isNaN && !pN.isNaN && p0 >= 0 && pN >= 0)
    assert(p0 == vn(0) && pN == vn(32))
  }

  test("spliced equals vanilla outside the exact band") {
    val rnd = new Random(6)
    val n = 200
    val x = Array.fill(n)(rnd.nextGaussian())
    val sp = HuberPeriodogram.spliced(x, (40, 60), zeta = 1.345, maxIter = 50)
    val vn = HuberPeriodogram.vanilla(x)
    (1 until 40).foreach(k => assert(sp(k) == vn(k)))
    (61 to 100).foreach(k => assert(sp(k) == vn(k)))
    // Inside the band values differ in general (robust estimate).
    assert((40 to 60).exists(k => sp(k) != vn(k)))
  }

  test("huberFull covers every index up to n/2") {
    val rnd = new Random(7)
    val x = Array.fill(100)(rnd.nextGaussian())
    val p = HuberPeriodogram.huberFull(x, 1.345, 50)
    assert(p.length == 51)
    assert(p.forall(v => v >= 0 && !v.isNaN))
  }

  test("ADMM converges: more iterations do not change the answer") {
    val rnd = new Random(8)
    val n = 300
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 10 * t / n) + 0.3 * rnd.nextGaussian())
    x(13) += 15.0
    val p50  = HuberAdmm.huberAtK(x, 10, 1.345, maxIter = 50)
    val p500 = HuberAdmm.huberAtK(x, 10, 1.345, maxIter = 500)
    assert(math.abs(p50 - p500) / p500 < 1e-3, s"$p50 vs $p500")
  }

  test("ADMM solution matches direct coordinate-descent minimizer of the Huber objective") {
    val rnd = new Random(9)
    val n = 128
    val x = Array.tabulate(n)(t => 0.8 * math.cos(2 * math.Pi * 5 * t / n) + 0.2 * rnd.nextGaussian())
    x(7) += 10; x(90) -= 12
    val k = 5; val zeta = 1.0
    def obj(b1: Double, b2: Double): Double = {
      (0 until n).map { t =>
        val r = b1 * math.cos(2 * math.Pi * k * t / n) + b2 * math.sin(2 * math.Pi * k * t / n) - x(t)
        HuberAdmm.huberLoss(r, zeta)
      }.sum
    }
    // Coarse-to-fine grid search as an independent oracle.
    var best = (0.0, 0.0); var bestV = Double.MaxValue
    var step = 0.5
    var c1 = 0.0; var c2 = 0.0
    (0 until 4).foreach { _ =>
      for (d1 <- -4 to 4; d2 <- -4 to 4) {
        val v = obj(c1 + d1 * step, c2 + d2 * step)
        if (v < bestV) { bestV = v; best = (c1 + d1 * step, c2 + d2 * step) }
      }
      c1 = best._1; c2 = best._2; step /= 4
    }
    val pOracle = n / 4.0 * (best._1 * best._1 + best._2 * best._2)
    val pAdmm   = HuberAdmm.huberAtK(x, k, zeta, maxIter = 300)
    assert(math.abs(pAdmm - pOracle) / math.max(pOracle, 1e-9) < 0.05,
      s"ADMM $pAdmm vs grid $pOracle")
    val pNewton = huberAt(x, k, zeta)
    assert(math.abs(pNewton - pOracle) / math.max(pOracle, 1e-9) < 0.05,
      s"Newton $pNewton vs grid $pOracle")
  }

  // Property: prox solves the scalar minimization (checked numerically).
  test("Huber prox minimizes γ_ζ(z) + (ρ/2)(z−v)²") {
    val vs = Seq(-5.0, -2.0, -1.0, -0.3, 0.0, 0.4, 1.2, 2.5, 6.0)
    for (v <- vs; zeta <- Seq(0.5, 1.345, 3.0); rho <- Seq(0.5, 1.0, 2.0)) {
      val zStar = HuberAdmm.huberProx(v, zeta, rho)
      def obj(z: Double) = HuberAdmm.huberLoss(z, zeta) + rho / 2 * (z - v) * (z - v)
      val best = (-800 to 800).map(_ * 0.01).minBy(obj)
      assert(math.abs(obj(zStar) - obj(best)) < 1e-4,
        s"prox($v, ζ=$zeta, ρ=$rho)=$zStar vs grid $best")
    }
  }

  /** Level-style input: `n` points zero-padded to N' = 2n. */
  private def padded(v: Array[Double]): Array[Double] = v ++ new Array[Double](v.length)

  /** The oracle series, 400 points each, before padding. */
  private val oracleSeries: Seq[(String, Array[Double])] = {
    val n = 400
    def rnd(seed: Int) = new Random(seed)
    val gauss = { val r = rnd(11); Array.fill(n)(r.nextGaussian()) }
    val gross = {
      val r = rnd(12)
      Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 25) + 0.3 * r.nextGaussian() +
        (if (r.nextDouble() < 0.4) 50.0 * r.nextGaussian() else 0.0))
    }
    val impulses = {
      val r = rnd(13)
      val v = Array.tabulate(n)(t => 2 * math.cos(2 * math.Pi * t / 40) + 0.1 * r.nextGaussian())
      (0 until 8).foreach(_ => v(r.nextInt(n)) += 200.0 * (if (r.nextBoolean()) 1 else -1))
      v
    }
    val tiny = { val r = rnd(14); Array.tabulate(n)(t => 1e-6 * (math.sin(2 * math.Pi * t / 16) + r.nextGaussian())) }
    val spiked = {
      val r = rnd(15)
      Array.tabulate(n)(t => 10 * math.sin(2 * math.Pi * t / 20) + (if (r.nextDouble() < 0.1) 1e3 else 0.0))
    }
    Seq("Gaussian" -> gauss, "40% gross outliers" -> gross, "sparse impulses" -> impulses,
        "1e-6-scale data" -> tiny, "spiked sine" -> spiked)
  }

  private val oracleInputs: Seq[(String, Array[Double])] =
    oracleSeries.map { case (s, v) => s -> padded(v) }

  /** The production solver agrees with 3000-step ADMM at each of `ks`. */
  private def assertMatchesAdmm(x: Array[Double], ks: Seq[Int]): Unit = {
    val n     = x.length
    val floor = 1e-6 * x.map(v => v * v).sum / n // mean power: the near-zero-ordinate floor
    val sp    = HuberPeriodogram.huberFull(x, 1.345, 50)
    ks.foreach { k =>
      val want = HuberAdmm.huberAtK(x, k, 1.345, maxIter = 3000, tol = 0.0)
      assert(math.abs(sp(k) - want) <= 1e-6 * math.max(want, floor), s"k=$k: ${sp(k)} vs ADMM $want")
    }
  }

  for ((name, x) <- oracleInputs) {
    test(s"Newton/IRLS matches the ADMM oracle to 1e-6 relative: $name") {
      assertMatchesAdmm(x, Seq(1, 7, 20, 40, 41, 100, 199, 250, 301, 399))
    }
  }

  // Unpadded inputs have no zeros, so a screened pass certifies only points
  // the bound |x_t| ≤ ζ − ‖β‖ covers; n = 399 checks the closed-form sums
  // at the top ordinate (n − 1)/2 of an odd length.
  for ((name, v) <- oracleSeries) {
    test(s"Newton/IRLS matches the ADMM oracle to 1e-6 relative: $name, unpadded") {
      assertMatchesAdmm(v, Seq(1, 7, 20, 40, 41, 100, 150, 199))
    }
    test(s"Newton/IRLS matches the ADMM oracle to 1e-6 relative: $name, unpadded, n = 399") {
      assertMatchesAdmm(v.take(399), Seq(1, 7, 20, 40, 41, 100, 150, 199))
    }
  }

  // Zero-padded inputs: zeros are certified while ‖β‖ ≤ ζ and take the
  // exact pass otherwise; these cover both sides of that condition.
  private val tailInputs: Seq[(String, Array[Double], Seq[Int])] = {
    val n = 400
    // Amplitude-4 sine (β ≈ 2 after padding) with 10% gross outliers: at
    // the peak k = 32 ‖β‖ stays above ζ; at k = 31 it starts above and
    // ends below.
    val crossing = {
      val r = new Random(17)
      padded(Array.tabulate(n)(t => 4 * math.sin(2 * math.Pi * t / 25) + 0.3 * r.nextGaussian() +
        (if (r.nextDouble() < 0.1) 30.0 * r.nextGaussian() else 0.0)))
    }
    val lastZero = {
      val r = new Random(18)
      val v = Array.tabulate(n)(t => math.cos(2 * math.Pi * t / 40) + 0.5 * r.nextGaussian())
      v(n - 1) = 0.0
      padded(v)
    }
    val notPadded = { // zero-padded but for the very last point
      val r = new Random(19)
      val v = padded(Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 16) + 0.5 * r.nextGaussian()))
      v(2 * n - 1) = 0.5
      v
    }
    Seq(("padded, ‖β‖ crosses ζ", crossing, Seq(1, 7, 29, 30, 31, 32, 33, 34, 100, 301)),
        ("padded, last data point 0.0", lastZero, Seq(1, 7, 20, 40, 41, 100, 199, 250, 301, 399)),
        ("last padding point nonzero", notPadded, Seq(1, 7, 20, 49, 50, 51, 100, 250, 301, 399)))
  }

  for ((name, x, ks) <- tailInputs) {
    test(s"Newton/IRLS matches the ADMM oracle to 1e-6 relative: $name") {
      assertMatchesAdmm(x, ks)
    }
  }

  test("the crossing input has ordinates whose ‖β‖ crosses ζ or ends above it") {
    val (_, x, ks) = tailInputs.head
    val n  = x.length
    val vn = HuberPeriodogram.vanilla(x)
    val hf = HuberPeriodogram.huberFull(x, 1.345, 50)
    def norm(p: Double) = math.sqrt(4 * p / n) // P = (n/4)‖β‖²
    val crossed = ks.filter(k => (norm(vn(k)) - 1.345) * (norm(hf(k)) - 1.345) < 0)
    val trace   = ks.map(k => s"$k: ${norm(vn(k))} -> ${norm(hf(k))}").mkString(", ")
    assert(crossed.nonEmpty, trace)
    assert(ks.exists(k => norm(hf(k)) > 1.345), trace)
  }

  test("Huber with huge ζ equals vanilla on a zero-padded input") {
    val rnd = new Random(20)
    val x   = padded(Array.fill(256)(rnd.nextGaussian()))
    val vn  = HuberPeriodogram.vanilla(x)
    for (k <- Seq(3, 10, 31, 77, 255)) {
      val ph = huberAt(x, k, zeta = 1e9)
      assert(math.abs(ph - vn(k)) < 1e-6 * math.max(1.0, vn(k)), s"k=$k: $ph vs ${vn(k)}")
    }
  }

  test("huge ζ equals vanilla at N' = 40000 (shared twiddle table)") {
    val rnd = new Random(16)
    val x   = Array.fill(40000)(rnd.nextGaussian())
    val vn  = HuberPeriodogram.vanilla(x)
    for (k <- Seq(1, 997, 12345, 19999)) {
      val ph = huberAt(x, k, zeta = 1e9)
      assert(math.abs(ph - vn(k)) <= 1e-9 * vn(k), s"k=$k: $ph vs ${vn(k)}")
    }
  }

  /** Amplitude-2 sine (period 36) with 25% outliers: at k = 23 (N' = 800)
    * ‖β‖ rises from the least-squares start and then falls, all below ζ,
    * so the screened passes' candidate sets grow and then shrink.
    */
  private val growShrink: (Array[Double], Int) = {
    val r = new Random(21)
    padded(Array.tabulate(400)(t => 2 * math.sin(2 * math.Pi * t / 36) + 0.3 * r.nextGaussian() +
      (if (r.nextDouble() < 0.25) 11 * r.nextGaussian() else 0.0))) -> 23
  }

  test("the grow-shrink input's candidate set grows and then shrinks across passes") {
    val (x, k) = growShrink
    // ‖β‖ of the iterate accepted after m passes, from P = (n/4)‖β‖²; each
    // was the iterate of one pass, whose candidates are |x_t| > ζ − ‖β‖.
    val norms = (1 to 8).map(m => math.sqrt(4 * HuberPeriodogram.spliced(x, (k, k), 1.345, m)(k) / x.length))
    val cands = norms.map(b => x.count(v => math.abs(v) > 1.345 - b))
    val peak  = cands.indexOf(cands.max)
    assert(norms.forall(_ <= 1.345), norms)
    assert(cands.take(peak).exists(_ < cands(peak)) && cands.drop(peak).exists(_ < cands(peak)), cands)
  }

  test("Newton/IRLS matches the ADMM oracle to 1e-6 relative: candidate set grows then shrinks") {
    val (x, k) = growShrink
    assertMatchesAdmm(x, Seq(1, k - 2, k - 1, k, k + 1, k + 2, 100, 301))
  }

  private def bits(p: Array[Double]): Seq[Long] = p.toSeq.map(java.lang.Double.doubleToRawLongBits)

  // Each exact ordinate is solved independently of the others, so the
  // detector may solve the even ones, test, and fill the odd ones only for
  // a significant level, and get what `spliced` gives.
  private val parityInputs: Seq[(String, Array[Double], (Int, Int))] = {
    val r = new Random(22)
    def noisySine(n: Int, period: Double) =
      Array.tabulate(n)(t => math.sin(2 * math.Pi * t / period) + 0.5 * r.nextGaussian() +
        (if (r.nextDouble() < 0.05) 20 * r.nextGaussian() else 0.0))
    Seq(("padded n=800, one octave", padded(noisySine(400, 25)), (25, 50)),
        ("padded n=2000, band past n/2", padded(noisySine(1000, 40)), (500, 1000)),
        ("unpadded n=401, every ordinate", noisySine(401, 16), (1, 200)),
        ("unpadded n=333, odd lower edge", noisySine(333, 12), (17, 166)),
        ("padded n=3360, deep band", padded(noisySine(1680, 168)), (3, 14)))
  }

  for ((name, x, band) <- parityInputs) {
    test(s"even pass then odd fill equals spliced bitwise: $name") {
      val want = HuberPeriodogram.spliced(x, band, 1.345, 50)
      val vn   = HuberPeriodogram.vanilla(x)
      val sp   = new HuberPeriodogram.Spliced(x, band, 1.345, 50)
      val even = sp.solveEven().clone()
      val half = x.length / 2
      assert(bits(even) == bits(Array.tabulate(half + 1)(k => if (k % 2 == 0) want(k) else vn(k))))
      assert(bits(sp.solveOdd()) == bits(want))
      val lo = math.max(1, band._1); val hi = math.min((x.length - 1) / 2, band._2)
      for (k <- Seq(lo, lo + 1, (lo + hi) / 2, hi))
        assert(bits(Array(HuberPeriodogram.spliced(x, (k, k), 1.345, 50)(k))) == bits(Array(want(k))), s"k=$k")
      assert((lo to hi).exists(k => want(k) != vn(k)))
    }
  }

  private val zeta = 1.345

  /** ‖β‖ from P = (n/4)‖β‖². */
  private def norm(x: Array[Double], p: Double): Double = math.sqrt(4 * p / x.length)

  /** The solver's certain-outlier margin B = min(ζ, 2‖β_LS‖ + 0.02). */
  private def margin(x: Array[Double], k: Int): Double =
    math.min(zeta, 2 * norm(x, HuberPeriodogram.vanilla(x)(k)) + 0.02)

  /** Points whose |x_t| is at least the solver's certain-outlier bound. */
  private def outliers(x: Array[Double], k: Int): Int =
    x.count(v => math.abs(v) >= (zeta + margin(x, k)) * (1 + 1e-9))

  /** |a − b| ≤ tol·max(b, 1e-6 × mean power). */
  private def close(x: Array[Double], a: Double, b: Double, tol: Double): Boolean =
    math.abs(a - b) <= tol * math.max(b, 1e-6 * x.map(v => v * v).sum / x.length)

  /** (n/4)‖β‖² after the IRLS step from least squares, β_LS − H_I⁻¹g with
    * H_I = Σ min(1, ζ/|r|)φφᵀ and g = Σ φψ(r), summed directly over all
    * points.
    */
  private def irlsFromLeastSquares(x: Array[Double], k: Int): Double = {
    val n = x.length
    val ang = Array.tabulate(n)(t => 2 * math.Pi * ((k.toLong * t) % n) / n)
    val (c, s) = (ang.map(math.cos), ang.map(math.sin))
    val b1 = 2.0 / n * x.indices.map(t => c(t) * x(t)).sum
    val b2 = 2.0 / n * x.indices.map(t => s(t) * x(t)).sum
    var g1 = 0.0; var g2 = 0.0; var h11 = 0.0; var h12 = 0.0; var h22 = 0.0
    for (t <- 0 until n) {
      val r = c(t) * b1 + s(t) * b2 - x(t)
      val psi = math.max(-zeta, math.min(zeta, r))
      val w = math.min(1.0, zeta / math.abs(r))
      g1 += c(t) * psi; g2 += s(t) * psi
      h11 += w * c(t) * c(t); h12 += w * c(t) * s(t); h22 += w * s(t) * s(t)
    }
    val det = h11 * h22 - h12 * h12
    val d1 = -(h22 * g1 - h12 * g2) / det; val d2 = -(h11 * g2 - h12 * g1) / det
    n / 4.0 * ((b1 + d1) * (b1 + d1) + (b2 + d2) * (b2 + d2))
  }

  // The solver accepts an iterate whose objective differs from the last
  // accepted one's by f's rounding alone. Without that allowance it
  // stopped at this ordinate 1.4e-6 relative from the optimum, because
  // the last Newton iterate and then the IRLS retry each raised f by
  // rounding only and were rejected.
  test("the solver does not stop at the objective's rounding floor: padded sine, 40% gross outliers, k = 308") {
    val r = new Random(49)
    val x = padded(Array.tabulate(400)(t => math.sin(2 * math.Pi * t / 25) + 0.3 * r.nextGaussian() +
      (if (r.nextDouble() < 0.4) 15.0 * r.nextGaussian() else 0.0)))
    val got  = huberAt(x, 308, zeta)
    val want = HuberAdmm.huberAtK(x, 308, zeta, maxIter = 4000, tol = 0.0)
    assert(math.abs(got - want) <= 1e-9 * want, s"$got vs ADMM $want")
  }

  /** Level `lvl` of `y` as `RobustPeriod.detect` hands it to the solver:
    * preprocessed, MODWT, median/MAD-standardized and zero-padded.
    */
  private def detectorLevel(y: Array[Double], lvl: Int): Array[Double] = {
    val cfg = RobustPeriod.Config()
    val pre = Preprocess(y, cfg.hpLambda, cfg.clipC)
    val dec = MODWT.transform(pre, MODWT.defaultLevels(y.length, cfg.waveletOrder, cfg.maxLevels), cfg.waveletOrder)
    padded(RobustStats.robustStandardize(dec.w(lvl - 1)))
  }

  // Table 2 levels whose Newton iterates raise f by an ulp or two on the
  // way: without the rounding allowance these ordinates stopped 3.4e-7
  // (sin3 moderate), 1.0e-6 and 1.3e-7 (Yahoo-A4-like) relative from ADMM.
  test("the solver does not stop at the objective's rounding floor: Table 2 detector levels") {
    val sin3 = Datasets.multiPeriod(20, Sin, 1.0, 0.1, seed = 2300)(8).values
    val a4   = Datasets.yahooLike(8, a4 = true)(4).values
    for ((x, k) <- Seq((detectorLevel(sin3, 1), 888), (detectorLevel(a4, 1), 1110), (detectorLevel(a4, 6), 42))) {
      val got  = huberAt(x, k, zeta)
      val want = HuberAdmm.huberAtK(x, k, zeta, maxIter = 4000, tol = 0.0)
      assert(math.abs(got - want) <= 1e-9 * want, s"N' = ${x.length}, k=$k: $got vs ADMM $want")
    }
  }

  test("an iterate outside ‖β‖ ≤ B takes the pass without certain outliers and matches ADMM to 1e-9") {
    // Period-25 cosine whose peaks are replaced by −10: least squares
    // sees almost no amplitude at k = 32, the Huber fit sees the cosine.
    val r = new Random(31)
    val x = padded(Array.tabulate(400)(t =>
      if (t % 25 == 0) -10.0 else math.cos(2 * math.Pi * t / 25) + 0.2 * r.nextGaussian()))
    val k = 32
    val b = margin(x, k)
    val p = huberAt(x, k, zeta)
    assert(b < zeta && norm(x, HuberPeriodogram.vanilla(x)(k)) < b && norm(x, p) > b, s"B = $b, ‖β̂‖ = ${norm(x, p)}")
    assert(outliers(x, k) > 0)
    val want = HuberAdmm.huberAtK(x, k, zeta, maxIter = 4000, tol = 0.0)
    assert(close(x, p, want, 1e-9), s"$p vs ADMM $want")
  }

  test("a rejected iterate retries with the IRLS step, certain outliers' weights included") {
    // Unpadded, 10% small points and 90% gross ones: the Newton step from
    // least squares overshoots and raises f.
    val r = new Random(4)
    val x = Array.tabulate(200)(t =>
      if (r.nextDouble() < 0.1) 0.3 * r.nextGaussian() else (if (r.nextBoolean()) 1 else -1) * (2.0 + 4 * r.nextDouble()))
    for (k <- Seq(4, 28, 40, 67)) {
      val p = (1 to 3).map(m => HuberPeriodogram.spliced(x, (k, k), zeta, m)(k))
      assert(norm(x, p(0)) <= margin(x, k) && outliers(x, k) > 0, s"k=$k")
      assert(p(1) == p(0), s"k=$k: pass 2 was accepted") // rejected: still least squares
      val irls = irlsFromLeastSquares(x, k)
      assert(math.abs(p(2) - irls) <= 1e-9 * irls, s"k=$k: ${p(2)} vs IRLS step $irls")
      val want = HuberAdmm.huberAtK(x, k, zeta, maxIter = 4000, tol = 0.0)
      assert(close(x, huberAt(x, k, zeta), want, 1e-9), s"k=$k: ${huberAt(x, k, zeta)} vs ADMM $want")
    }
  }

  test("an ill-conditioned Newton Hessian takes the IRLS step, certain outliers' weights included") {
    // Unpadded, k = 32 of 256: the small points sit at t ≡ 0 mod 4, where
    // φ_t = (±1, 0); every other point has |x_t| ≥ 2, beyond ζ + ‖β_LS‖.
    // At the least-squares start the inliers' Σφφᵀ therefore has rank one.
    val r = new Random(1)
    val (n, k) = (256, 32)
    val x = Array.tabulate(n)(t =>
      if (t % 4 == 0) 0.3 * math.cos(2 * math.Pi * k * t / n) + 0.1 * r.nextGaussian()
      else (if (r.nextBoolean()) 1 else -1) * (2.0 + 4 * r.nextDouble()))
    val ls = norm(x, HuberPeriodogram.vanilla(x)(k))
    assert(x.indices.forall(t => t % 4 == 0 || math.abs(x(t)) > zeta + ls) && ls <= margin(x, k))
    assert(outliers(x, k) > 0)
    val p2   = HuberPeriodogram.spliced(x, (k, k), zeta, 2)(k)
    val irls = irlsFromLeastSquares(x, k)
    assert(math.abs(p2 - irls) <= 1e-9 * irls, s"$p2 vs IRLS step $irls")
    val want = HuberAdmm.huberAtK(x, k, zeta, maxIter = 4000, tol = 0.0)
    assert(close(x, huberAt(x, k, zeta), want, 1e-9), s"${huberAt(x, k, zeta)} vs ADMM $want")
  }

  test("twiddle index in Long arithmetic at N' = 70000 matches ADMM") {
    // k·t exceeds 2³¹ at these k for t near N', so the index takes the
    // Long path; unpadded, so screened passes visit points up to N' − 1.
    val r = new Random(23)
    val x = Array.tabulate(70000)(t => 2 * math.cos(2 * math.Pi * 34001.0 * t / 70000) + r.nextGaussian() +
      (if (r.nextDouble() < 0.05) 20 * r.nextGaussian() else 0.0))
    val sp = new HuberPeriodogram.Spliced(x, (34000, 34002), zeta, 50)
    sp.solveEven(); val p = sp.solveOdd()
    for (k <- 34000 to 34002) {
      val want = HuberAdmm.huberAtK(x, k, zeta, maxIter = 300, tol = 1e-12)
      assert(close(x, p(k), want, 1e-9), s"k=$k: ${p(k)} vs ADMM $want")
    }
  }

  test("property: every exact ordinate of small padded inputs with gross outliers matches ADMM to 1e-9") {
    val inputs: Gen[Array[Double]] = for {
      n    <- Gen.choose(8, 256)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val r = new Random(seed)
      val period = 2 + r.nextDouble() * n / 2
      val (amp, sigma) = (3 * r.nextDouble(), 0.1 + r.nextDouble())
      val (frac, scale) = (0.5 * r.nextDouble(), 2 + 48 * r.nextDouble())
      padded(Array.tabulate(n)(t => amp * math.sin(2 * math.Pi * t / period) + sigma * r.nextGaussian() +
        (if (r.nextDouble() < frac) scale * r.nextGaussian() else 0.0)))
    }
    val prop = Prop.forAllNoShrink(inputs) { x =>
      val sp  = HuberPeriodogram.huberFull(x, zeta, 50)
      val bad = (1 until x.length / 2).filterNot { k =>
        // 600 ADMM steps suffice at most ordinates; the rest get 12000.
        close(x, sp(k), HuberAdmm.huberAtK(x, k, zeta, maxIter = 600, tol = 0.0), 1e-9) ||
          close(x, sp(k), HuberAdmm.huberAtK(x, k, zeta, maxIter = 12000, tol = 0.0), 1e-9)
      }
      bad.isEmpty :| s"N' = ${x.length}, ordinates ${bad.mkString(",")}"
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(40).withWorkers(1)
      .withInitialSeed(Seed(20261020L))
    val res = Check.check(params, prop)
    assert(res.passed, res.status.toString)
  }
}
