package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

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
    val hub = HuberPeriodogram.huberFull(dirty, 1.345)
    val hubOff = offPeakMax(hub(_))
    assert(hubOff < vanOff, s"huber off-peak $hubOff vs vanilla $vanOff")
    // And the Huber peak stays within 40% of the clean peak.
    val hubPeak = hub(16)
    assert(math.abs(hubPeak - peakClean) / peakClean < 0.4, s"$hubPeak vs $peakClean")
  }

  test("degenerate frequencies (k=0, Nyquist) fall back without NaN") {
    val rnd = new Random(5)
    val x = Array.fill(64)(rnd.nextGaussian())
    val p  = HuberPeriodogram.spliced(x, (0, 32), 1.345)
    val vn = HuberPeriodogram.vanilla(x)
    val p0 = p(0); val pN = p(32)
    assert(!p0.isNaN && !pN.isNaN && p0 >= 0 && pN >= 0)
    assert(p0 == vn(0) && pN == vn(32))
  }

  test("spliced equals vanilla outside the exact band") {
    val rnd = new Random(6)
    val n = 200
    val x = Array.fill(n)(rnd.nextGaussian())
    val sp = HuberPeriodogram.spliced(x, (40, 60), zeta = 1.345)
    val vn = HuberPeriodogram.vanilla(x)
    (1 until 40).foreach(k => assert(sp(k) == vn(k)))
    (61 to 100).foreach(k => assert(sp(k) == vn(k)))
    // Inside the band values differ in general (robust estimate).
    assert((40 to 60).exists(k => sp(k) != vn(k)))
  }

  test("huberFull covers every index up to n/2") {
    val rnd = new Random(7)
    val x = Array.fill(100)(rnd.nextGaussian())
    val p = HuberPeriodogram.huberFull(x, 1.345)
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
        RobustStats.huberLoss(r, zeta)
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
      def obj(z: Double) = RobustStats.huberLoss(z, zeta) + rho / 2 * (z - v) * (z - v)
      val best = (-800 to 800).map(_ * 0.01).minBy(obj)
      assert(math.abs(obj(zStar) - obj(best)) < 1e-4,
        s"prox($v, ζ=$zeta, ρ=$rho)=$zStar vs grid $best")
    }
  }

  /** Level-style input: `n` points zero-padded to N' = 2n. */
  private def padded(v: Array[Double]): Array[Double] = v ++ new Array[Double](v.length)

  private val oracleInputs: Seq[(String, Array[Double])] = {
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
        "1e-6-scale data" -> tiny, "spiked sine" -> spiked).map { case (s, v) => s -> padded(v) }
  }

  for ((name, x) <- oracleInputs) {
    test(s"Newton/IRLS matches the ADMM oracle to 1e-6 relative: $name") {
      val n     = x.length
      val floor = 1e-6 * x.map(v => v * v).sum / n // mean power: the near-zero-ordinate floor
      val ks    = Seq(1, 7, 20, 40, 41, 100, 199, 250, 301, 399)
      val sp    = HuberPeriodogram.huberFull(x, 1.345)
      ks.foreach { k =>
        val want = HuberAdmm.huberAtK(x, k, 1.345, maxIter = 3000, tol = 0.0)
        assert(math.abs(sp(k) - want) <= 1e-6 * math.max(want, floor), s"k=$k: ${sp(k)} vs ADMM $want")
      }
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
}
