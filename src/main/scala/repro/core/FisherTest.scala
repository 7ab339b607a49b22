package repro.core

/** Fisher's test of significance in harmonic analysis (Fisher 1929).
  *
  * g = max_k P_k / Σ_k P_k over the positive frequencies; under the white
  * noise null, P(g ≥ g0) = Σ_{k=1}^{⌊1/g0⌋} (−1)^{k−1} C(N,k) (1 − k g0)^{N−1}.
  * The alternating series is evaluated in log space with signed
  * accumulation (p-values down to ~1e-300 appear in practice) and clamped
  * to [0, 1].
  */
object FisherTest {

  final case class Result(g: Double, kMax: Int, pValue: Double)

  /** Run Fisher's test on half-range periodogram ordinates
    * `p(kFrom..kTo)` (k = 0 / DC excluded by default).
    */
  def test(p: Array[Double], kFrom: Int = 1, kTo: Int = -1): Result = {
    val hi = if (kTo < 0) p.length - 1 else math.min(kTo, p.length - 1)
    var sum  = 0.0
    var best = -1.0
    var kb   = kFrom
    var k    = kFrom
    while (k <= hi) {
      sum += p(k)
      if (p(k) > best) { best = p(k); kb = k }
      k += 1
    }
    if (sum <= 0 || best <= 0) return Result(0.0, kFrom, 1.0)
    val n = hi - kFrom + 1
    val g = best / sum
    Result(g, kb, pValue(g, n))
  }

  /** P(g ≥ g0) for N periodogram ordinates. */
  def pValue(g0: Double, nOrdinates: Int): Double = {
    if (g0 <= 0) return 1.0
    if (g0 >= 1) return 0.0
    val kMax = math.min((1.0 / g0).toInt, math.min(nOrdinates, 200))
    // Signed log-space accumulation of Σ (−1)^{k−1} exp(logC(N,k) + (N−1)log(1−k g0)).
    var pos = Double.NegativeInfinity // log of positive part
    var neg = Double.NegativeInfinity // log of negative part
    val lgN = lgamma(nOrdinates + 1.0) // log C(N,k) = lgN − lgamma(k+1) − lgamma(N−k+1)
    var k = 1
    while (k <= kMax) {
      val arg = 1.0 - k * g0
      if (arg > 0) {
        val lt = lgN - lgamma(k + 1.0) - lgamma(nOrdinates - k + 1.0) +
          (nOrdinates - 1) * math.log(arg)
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

  /** Smallest g with P(g ≥ g*) = α — Fisher critical value, used by
    * Siegel's test (λ·g_F threshold). Bisection on the monotone p-value,
    * for at most 200 halvings. It stops after the first halving whose
    * midpoint equals an end: the ends are then equal or adjacent doubles,
    * and every later halving would leave them, and the result, as they are.
    */
  def criticalG(alpha: Double, nOrdinates: Int): Double = {
    var lo   = 1e-12
    var hi   = 1.0 - 1e-12
    var done = false
    var i    = 0
    while (i < 200 && !done) {
      val mid = 0.5 * (lo + hi)
      done = mid == lo || mid == hi
      if (pValue(mid, nOrdinates) > alpha) lo = mid else hi = mid
      i += 1
    }
    0.5 * (lo + hi)
  }

  private def logAdd(a: Double, b: Double): Double =
    if (a == Double.NegativeInfinity) b
    else if (b == Double.NegativeInfinity) a
    else if (a > b) a + math.log1p(math.exp(b - a))
    else b + math.log1p(math.exp(a - b))

  private val Lanczos = Array(
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)

  /** Lanczos log-gamma (g = 7, n = 9), accurate to ~1e-13 for x > 0. */
  def lgamma(x: Double): Double = {
    if (x < 0.5)
      math.log(math.Pi / math.sin(math.Pi * x)) - lgamma(1.0 - x)
    else {
      val xx = x - 1.0
      var a  = Lanczos(0)
      val t  = xx + 7.5
      var i  = 1
      while (i < 9) { a += Lanczos(i) / (xx + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }
}
