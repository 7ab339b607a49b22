package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class FisherTestSpec extends AnyFunSuite {

  test("p-value bounds: g=0 → 1, g=1 → 0") {
    assert(FisherTest.pValue(0.0, 100) == 1.0)
    assert(FisherTest.pValue(1.0, 100) == 0.0)
  }

  for (n <- Seq(20, 100, 500)) {
    test(s"p-value is monotone decreasing in g (N=$n)") {
      val ps = (1 to 30).map(i => FisherTest.pValue(i / 31.0, n))
      ps.sliding(2).foreach(w => assert(w(1) <= w(0) + 1e-12))
    }
  }

  test("exact small case N=2: P(g ≥ g0) = 2(1 − g0) for g0 in [1/2, 1]") {
    // With two ordinates the alternating series is exact and simple.
    for (g0 <- Seq(0.55, 0.7, 0.9)) {
      assert(math.abs(FisherTest.pValue(g0, 2) - 2 * (1 - g0)) < 1e-10)
    }
  }

  test("exact small case N=3, g0 > 1/2: P = 3(1−g0)²") {
    for (g0 <- Seq(0.6, 0.75, 0.95)) {
      assert(math.abs(FisherTest.pValue(g0, 3) - 3 * (1 - g0) * (1 - g0)) < 1e-10)
    }
  }

  test("white-noise null: rejection rate at α=0.05 is near 5%") {
    val rnd = new Random(12)
    var rejects = 0
    val trials = 400
    (0 until trials).foreach { _ =>
      val x = Array.fill(256)(rnd.nextGaussian())
      val p = HuberPeriodogram.vanilla(x).take(129)
      if (FisherTest.test(p).pValue < 0.05) rejects += 1
    }
    val rate = rejects.toDouble / trials
    assert(rate > 0.01 && rate < 0.11, s"rejection rate $rate")
  }

  test("strong sine gives an astronomically small p-value at the right bin") {
    val n = 512
    val rnd = new Random(13)
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * 20 * t / n) + 0.2 * rnd.nextGaussian())
    val res = FisherTest.test(HuberPeriodogram.vanilla(x).take(n / 2 + 1))
    assert(res.kMax == 20)
    assert(res.pValue < 1e-50, s"p ${res.pValue}")
  }

  test("tiny p-values representable without underflow to exactly 0 for moderate g") {
    val p = FisherTest.pValue(0.5, 500)
    assert(p > 0 && p < 1e-100, s"p $p")
  }

  for (alpha <- Seq(0.05, 0.01, 0.001); n <- Seq(50, 250, 1000)) {
    test(s"criticalG inverts pValue (α=$alpha, N=$n)") {
      val g = FisherTest.criticalG(alpha, n)
      assert(math.abs(FisherTest.pValue(g, n) - alpha) < alpha * 0.02)
    }
  }

  test("test() ignores ordinates outside [kFrom, kTo]") {
    val p = Array(100.0, 1.0, 1.0, 50.0, 1.0, 1.0, 1.0)
    val res = FisherTest.test(p, kFrom = 1, kTo = 2) // excludes DC and the 50 spike
    assert(res.kMax <= 2 && res.g == 0.5)
  }

  test("all-zero periodogram → p-value 1") {
    assert(FisherTest.test(Array.fill(10)(0.0)).pValue == 1.0)
  }

  test("lgamma matches known values") {
    assert(math.abs(FisherTest.lgamma(1.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(2.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(5.0) - math.log(24.0)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-10)
    assert(math.abs(FisherTest.lgamma(101.0) - (1 to 100).map(i => math.log(i.toDouble)).sum) < 1e-8)
  }

  private def rawBits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  for (alpha <- Seq(0.001, 0.01, 0.05); n <- Seq(8, 16, 100, 500, 840, 3600)) {
    test(s"criticalG and pValue equal the full 200-halving bisection bit for bit (α=$alpha, N=$n)") {
      val g = FisherTest.criticalG(alpha, n)
      assert(rawBits(g) == rawBits(FisherOracle.criticalG(alpha, n)))
      val gs = Seq(1e-12, 1e-6, 0.5 * g, g, math.nextUp(g), 2 * g, 0.3, 0.5, 0.9, 1 - 1e-12) ++
        (1 to 40).map(_ / 41.0)
      gs.foreach(g0 => assert(rawBits(FisherTest.pValue(g0, n)) == rawBits(FisherOracle.pValue(g0, n)), s"g0 $g0"))
    }
  }
}

/** `pValue` and `criticalG` as first written: C(N, k) recomputed per term,
  * Lanczos coefficients allocated per call, and all 200 halvings run.
  */
private object FisherOracle {

  def pValue(g0: Double, nOrdinates: Int): Double = {
    if (g0 <= 0) return 1.0
    if (g0 >= 1) return 0.0
    val kMax = math.min((1.0 / g0).toInt, math.min(nOrdinates, 200))
    var pos = Double.NegativeInfinity
    var neg = Double.NegativeInfinity
    var k = 1
    while (k <= kMax) {
      val arg = 1.0 - k * g0
      if (arg > 0) {
        val lt = logBinom(nOrdinates, k) + (nOrdinates - 1) * math.log(arg)
        if (k % 2 == 1) pos = logAdd(pos, lt) else neg = logAdd(neg, lt)
      }
      k += 1
    }
    val p =
      if (pos == Double.NegativeInfinity) 0.0
      else if (neg == Double.NegativeInfinity) math.exp(pos)
      else if (pos >= neg) math.exp(pos) * (1.0 - math.exp(neg - pos))
      else -math.exp(neg) * (1.0 - math.exp(pos - neg))
    math.min(1.0, math.max(0.0, p))
  }

  def criticalG(alpha: Double, nOrdinates: Int): Double = {
    var lo = 1e-12
    var hi = 1.0 - 1e-12
    var i  = 0
    while (i < 200) {
      val mid = 0.5 * (lo + hi)
      if (pValue(mid, nOrdinates) > alpha) lo = mid else hi = mid
      i += 1
    }
    0.5 * (lo + hi)
  }

  private def logBinom(n: Int, k: Int): Double =
    lgamma(n + 1.0) - lgamma(k + 1.0) - lgamma(n - k + 1.0)

  private def logAdd(a: Double, b: Double): Double =
    if (a == Double.NegativeInfinity) b
    else if (b == Double.NegativeInfinity) a
    else if (a > b) a + math.log1p(math.exp(b - a))
    else b + math.log1p(math.exp(a - b))

  private def lgamma(x: Double): Double = {
    val c = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5)
      math.log(math.Pi / math.sin(math.Pi * x)) - lgamma(1.0 - x)
    else {
      val xx = x - 1.0
      var a  = c(0)
      val t  = xx + 7.5
      var i  = 1
      while (i < 9) { a += c(i) / (xx + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }
}
