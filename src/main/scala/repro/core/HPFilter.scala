package repro.core

import repro.numerics.{Banded, DoubleArrays}

/** Hodrick–Prescott trend filter (Eq. 2):
  *
  *   τ̂ = argmin_τ ½ Σ (y_t − τ_t)² + λ Σ (τ_{t−1} − 2τ_t + τ_{t+1})²
  *
  * First-order condition: (I + 2λ DᵀD) τ = y with D the (N−2)×N second
  * difference operator — a pentadiagonal SPD system solved by banded
  * Cholesky in O(N).
  */
object HPFilter {

  /** Length-adaptive smoothing parameter. The HP trend gain at period T is
    * 1/(1 + 32λ sin⁴(π/T)), so a fixed λ silently absorbs long periodic
    * components into the "trend" (λ=1e5 already swallows half of a T≈80
    * cycle — fatal for daily periods in minutely data, cf. Table 4's
    * T=720/1440). This λ puts the 50% cutoff at period N/3, safely above
    * the detectable range (T ≤ N/4): λ = 1/(32·sin⁴(3π/N)).
    */
  def autoLambda(n: Int): Double = {
    val s = math.sin(math.min(math.Pi / 4, 3.0 * math.Pi / math.max(n, 12)))
    1.0 / (32.0 * math.pow(s, 4.0))
  }

  /** Resolve a λ parameter: positive values pass through, non-positive
    * selects [[autoLambda]] for the series length.
    */
  def resolveLambda(lambda: Double, n: Int): Double =
    if (lambda > 0) lambda else autoLambda(n)

  /** Estimated trend τ̂ of `y` for smoothing parameter λ (≤0 = auto). */
  def trend(y: Array[Double], lambda: Double = -1): Array[Double] = {
    val n = y.length
    if (n < 4) return y.clone()
    val lam = resolveLambda(lambda, n)
    // Banded storage: band(d)(i) = A(i, i + d), d in 0..2.
    val band = Array.ofDim[Double](3, n)
    var i = 0
    while (i < n) { band(0)(i) = 1.0; i += 1 }
    // Accumulate 2λ·DᵀD from each second-difference row r with stencil
    // (+1, −2, +1) at columns (r, r+1, r+2).
    val w = 2.0 * lam
    var r = 0
    while (r < n - 2) {
      band(0)(r)     += w * 1.0
      band(0)(r + 1) += w * 4.0
      band(0)(r + 2) += w * 1.0
      band(1)(r)     += w * -2.0 // A(r, r+1)
      band(1)(r + 1) += w * -2.0 // A(r+1, r+2)
      band(2)(r)     += w * 1.0  // A(r, r+2)
      r += 1
    }
    Banded.solve(band, y)
  }

  /** Detrended series y − τ̂ (λ ≤ 0 = auto). */
  def detrend(y: Array[Double], lambda: Double = -1): Array[Double] = {
    val t = trend(y, lambda)
    DoubleArrays.tabulate(y.length)(i => y(i) - t(i))
  }
}
