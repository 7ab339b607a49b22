package repro.wavelet

import repro.numerics.PolyRoots
import repro.numerics.PolyRoots.C

import scala.collection.concurrent.TrieMap

/** Daubechies orthonormal wavelet filters.
  *
  * Orders 1–4 are pinned to published coefficient tables; any order is also
  * derivable by spectral factorization of the Daubechies half-band
  * polynomial (roots via Durand–Kerner) — the test suite cross-checks the
  * generated filters against the tables for p ≤ 4 and against filter
  * identities (Σg = √2, ‖g‖ = 1, even-shift orthogonality, vanishing
  * moments) for higher orders.
  *
  * Convention: `scaling(p)` is the low-pass filter g of length 2p with
  * Σg = √2; `wavelet(p)` is the high-pass quadrature mirror
  * h_l = (−1)^l g_{L−1−l}.
  */
object Daubechies {

  private val tables: Map[Int, Array[Double]] = Map(
    1 -> Array(0.7071067811865476, 0.7071067811865476),
    2 -> Array(0.48296291314469025, 0.836516303737469, 0.22414386804185735,
               -0.12940952255092145),
    3 -> Array(0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
               -0.13501102001039084, -0.08544127388224149, 0.035226291882100656),
    4 -> Array(0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
               -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
               0.032883011666982945, -0.010597401784997278),
  )

  /** Filters by order: the tables, plus each generated order once it is
    * first asked for (spectral factorization costs ~25 ms for db10).
    */
  private val filters: TrieMap[Int, Array[Double]] = TrieMap.from(tables)

  /** Scaling (low-pass) filter for Daubechies order p (2p taps); a fresh
    * copy, so callers may modify it.
    */
  def scaling(p: Int): Array[Double] =
    filters.getOrElseUpdate(p, generate(p)).clone()

  /** Wavelet (high-pass) filter: h_l = (−1)^l g_{L−1−l}. */
  def wavelet(p: Int): Array[Double] = {
    val g = scaling(p)
    val L = g.length
    Array.tabulate(L)(l => (if (l % 2 == 0) 1.0 else -1.0) * g(L - 1 - l))
  }

  /** Spectral-factorization construction (Daubechies 1992 / Strang–Nguyen).
    *
    * P(y) = Σ_{k<p} C(p−1+k, k) y^k;  substitute y = (2 − z − z⁻¹)/4 and
    * clear denominators to get Q(z) = z^{p−1} P(·), degree 2p−2. Roots of Q
    * come in (r, 1/r) pairs; keep |r| < 1, then
    * g(z) ∝ (1+z)^p Π (z − r_i), normalized to Σg = √2 and minimum-phase
    * sign convention (g_0 > 0).
    */
  def generate(p: Int): Array[Double] = {
    require(p >= 1 && p <= 20, s"unsupported Daubechies order $p")
    if (p == 1) return tables(1).clone()
    // P(y) coefficients: binomial C(p-1+k, k).
    val pc = Array.tabulate(p)(k => binom(p - 1 + k, k))
    // Q(z) = z^{p-1} P((2 - z - 1/z)/4): build by polynomial arithmetic.
    // Let u(z) = (2 - z - 1/z)/4. Then z^{p-1} P(u) =
    //   Σ_k pc(k) * z^{p-1-k} * ((2z - z² - 1)/4)^k  since u = (2z - z² - 1)/(4z).
    val base = Array(-0.25, 0.5, -0.25) // (-1 + 2z - z²)/4 as coeffs of z^0..z^2
    var q = new Array[Double](2 * p - 1) // degree 2p-2
    var pow: Array[Double] = Array(1.0)  // base^k
    var k = 0
    while (k < p) {
      // term = pc(k) * z^{p-1-k} * pow  (pow has degree 2k)
      var i = 0
      while (i < pow.length) {
        q(p - 1 - k + i) += pc(k) * pow(i)
        i += 1
      }
      pow = polyMul(pow, base)
      k += 1
    }
    val rs     = PolyRoots.roots(q)
    val inside = rs.filter(_.abs < 1.0)
    require(inside.length == p - 1, s"expected ${p - 1} roots inside unit circle, got ${inside.length}")
    // g(z) ∝ (1+z)^p * Π (z − r_i); multiply out in complex then take real.
    var poly: Array[C] = Array(C.one)
    var i = 0
    while (i < p) { poly = polyMulC(poly, Array(C.one, C.one)); i += 1 } // (1 + z)
    inside.foreach { r => poly = polyMulC(poly, Array(C(-r.re, -r.im), C.one)) } // (z − r)
    val raw = poly.map(_.re)
    val s   = raw.sum
    // Normalize so Σg = +√2 (dividing by s fixes the overall sign too).
    val g = raw.map(_ * math.sqrt(2.0) / s)
    // Root selection can yield the time-reversed (maximal-phase) filter;
    // published tables use the extremal-phase one with the energy up front.
    if (math.abs(g(0)) >= math.abs(g(g.length - 1))) g else g.reverse
  }

  private def binom(n: Int, k: Int): Double = {
    var r = 1.0
    var i = 0
    while (i < k) { r = r * (n - i) / (i + 1); i += 1 }
    r
  }

  private def polyMul(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length + b.length - 1)
    for (i <- a.indices; j <- b.indices) out(i + j) += a(i) * b(j)
    out
  }

  private def polyMulC(a: Array[C], b: Array[C]): Array[C] = {
    val out = Array.fill(a.length + b.length - 1)(C.zero)
    for (i <- a.indices; j <- b.indices) out(i + j) = out(i + j) + a(i) * b(j)
    out
  }
}
