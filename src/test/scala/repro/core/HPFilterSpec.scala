package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class HPFilterSpec extends AnyFunSuite {

  test("recovers a pure linear trend almost exactly") {
    val y = Array.tabulate(500)(t => 0.5 * t + 3.0)
    val tr = HPFilter.trend(y)
    y.indices.foreach(i => assert(math.abs(tr(i) - y(i)) < 1e-6))
  }

  test("detrending a linear ramp leaves near-zero residuals") {
    val y = Array.tabulate(300)(t => -2.0 * t + 7.0)
    val d = HPFilter.detrend(y)
    assert(d.map(math.abs).max < 1e-6)
  }

  test("removes a slow quadratic trend from a fast sine") {
    val n = 1000
    val y = Array.tabulate(n)(t => 1e-4 * t * t + math.sin(2 * math.Pi * t / 20))
    val d = HPFilter.detrend(y, lambda = 1e5)
    // Residual should be essentially the sine: correlation with it high.
    val s = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 20))
    val corr = d.zip(s).map { case (a, b) => a * b }.sum /
      math.sqrt(d.map(v => v * v).sum * s.map(v => v * v).sum)
    assert(corr > 0.98, s"corr $corr")
  }

  test("trend of sine+triangle-trend tracks the triangle, not the sine") {
    val n = 800
    val tri = Array.tabulate(n) { t =>
      val p = t.toDouble / n
      10.0 * (if (p < 0.5) 2 * p else 2 - 2 * p)
    }
    val y = Array.tabulate(n)(t => tri(t) + math.sin(2 * math.Pi * t / 50))
    val tr = HPFilter.trend(y, 1e5)
    // Away from the kink the HP trend should be within 0.5 of the triangle.
    val errs = (50 until n - 50).filterNot(i => math.abs(i - n / 2) < 60)
      .map(i => math.abs(tr(i) - tri(i)))
    assert(errs.max < 0.6, s"max err ${errs.max}")
  }

  test("result insensitive to λ within 1e4..1e6 (DESIGN.md §5)") {
    val rnd = new Random(2)
    val n = 600
    val y = Array.tabulate(n)(t => 0.01 * t + math.sin(2 * math.Pi * t / 30) + 0.1 * rnd.nextGaussian())
    val d1 = HPFilter.detrend(y, 1e4)
    val d2 = HPFilter.detrend(y, 1e6)
    val diff = d1.zip(d2).map { case (a, b) => math.abs(a - b) }.max
    assert(diff < 0.5, s"λ sensitivity $diff")
  }

  test("matches dense normal-equation solve on a small system") {
    val rnd = new Random(4)
    val n = 40
    val y = Array.fill(n)(rnd.nextGaussian())
    val lambda = 100.0
    // Dense (I + 2λ DᵀD) assembled explicitly.
    val a = Array.ofDim[Double](n, n)
    for (i <- 0 until n) a(i)(i) = 1.0
    for (r <- 0 until n - 2) {
      val cols = Seq((r, 1.0), (r + 1, -2.0), (r + 2, 1.0))
      for ((ci, cv) <- cols; (cj, cw) <- cols) a(ci)(cj) += 2 * lambda * cv * cw
    }
    // Gaussian elimination oracle.
    val m = a.map(_.clone()); val x = y.clone()
    for (c <- 0 until n) {
      val piv = (c until n).maxBy(r => math.abs(m(r)(c)))
      val t = m(c); m(c) = m(piv); m(piv) = t
      val tb = x(c); x(c) = x(piv); x(piv) = tb
      for (r <- c + 1 until n) {
        val f = m(r)(c) / m(c)(c)
        for (cc <- c until n) m(r)(cc) -= f * m(c)(cc)
        x(r) -= f * x(c)
      }
    }
    val exp = new Array[Double](n)
    for (i <- n - 1 to 0 by -1) {
      var s = x(i)
      for (j <- i + 1 until n) s -= m(i)(j) * exp(j)
      exp(i) = s / m(i)(i)
    }
    val got = HPFilter.trend(y, lambda)
    got.indices.foreach(i => assert(math.abs(got(i) - exp(i)) < 1e-9))
  }

  test("auto λ keeps long periodic components out of the trend") {
    // A fixed λ=1e5 absorbs a T=720 cycle into the trend; auto λ must not.
    val n = 4320
    val y = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 720.0))
    val dAuto  = HPFilter.detrend(y) // auto λ
    val dFixed = HPFilter.detrend(y, 1e5)
    val energy = y.map(v => v * v).sum
    val eAuto  = dAuto.map(v => v * v).sum
    val eFixed = dFixed.map(v => v * v).sum
    assert(eAuto > 0.7 * energy, s"auto λ destroyed the cycle: ${eAuto / energy}")
    assert(eFixed < 0.1 * energy, s"fixed λ should have destroyed it: ${eFixed / energy}")
  }

  test("autoLambda cutoff sits at period N/3") {
    val n = 1200
    val lam = HPFilter.autoLambda(n)
    val gain = 1.0 / (1.0 + 32 * lam * math.pow(math.sin(math.Pi * 3 / n), 4))
    assert(math.abs(gain - 0.5) < 0.01, s"gain at N/3: $gain")
  }

  test("short series (< 4 points) returned unchanged") {
    assert(HPFilter.trend(Array(1.0, 2.0, 3.0)).toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("λ → 0 gives trend == data; large λ gives near-linear trend") {
    val rnd = new Random(11)
    val y = Array.fill(200)(rnd.nextGaussian())
    val t0 = HPFilter.trend(y, 1e-9)
    y.indices.foreach(i => assert(math.abs(t0(i) - y(i)) < 1e-6))
    val tInf = HPFilter.trend(y, 1e12)
    // Second differences of the trend should vanish.
    val dd = (1 until 199).map(i => math.abs(tInf(i - 1) - 2 * tInf(i) + tInf(i + 1))).max
    assert(dd < 1e-6, s"second-difference $dd")
  }
}

class PreprocessSpec extends AnyFunSuite {

  private val cfg = RobustPeriod.Config()

  test("output is clipped to ±c") {
    val rnd = new Random(3)
    val y = Array.fill(500)(rnd.nextGaussian()) ++ Array.fill(20)(500.0)
    val p = Preprocess(y, cfg.hpLambda, clipC = 3.0)
    assert(p.forall(v => math.abs(v) <= 3.0 + 1e-9))
  }

  test("sine survives preprocessing with shape intact") {
    val n = 600
    val y = Array.tabulate(n)(t => 5.0 + 0.02 * t + math.sin(2 * math.Pi * t / 40))
    val p = Preprocess(y, cfg.hpLambda, cfg.clipC)
    val s = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 40))
    val corr = p.zip(s).map { case (a, b) => a * b }.sum /
      math.sqrt(p.map(v => v * v).sum * s.map(v => v * v).sum)
    assert(corr > 0.95, s"corr $corr")
  }

  test("outliers are attenuated relative to raw scale") {
    val n = 500
    val y = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 25))
    y(100) = 100.0; y(300) = -80.0
    val p = Preprocess(y, cfg.hpLambda, cfg.clipC)
    assert(math.abs(p(100)) <= 3.0 + 1e-9 && math.abs(p(300)) <= 3.0 + 1e-9)
  }

  test("constant series maps to zeros without NaN") {
    val p = Preprocess(Array.fill(100)(42.0), cfg.hpLambda, cfg.clipC)
    assert(p.forall(v => !v.isNaN && math.abs(v) < 1e-9))
  }

  test("clip with huge c only standardizes: value ordering preserved") {
    val x = Array.tabulate(100)(i => math.sin(i * 0.2))
    val c = Preprocess.clip(x, 100.0)
    val orderX = x.zipWithIndex.sortBy(_._1).map(_._2).toSeq
    val orderC = c.zipWithIndex.sortBy(_._1).map(_._2).toSeq
    assert(orderX == orderC)
  }
}
