package repro.core

/** Periodograms: the vanilla FFT periodogram (Eq. 5) and the robust
  * Huber M-periodogram (Eq. 6–7) solved per frequency by safeguarded
  * Newton / IRLS.
  *
  * For level-j data the exact M-estimate is only computed on the octave
  * band [N'/2^{j+1}, N'/2^j] and spliced with the vanilla periodogram
  * elsewhere — the paper's own speed-up; the splice is scale-consistent
  * because the sum-of-squares M-periodogram equals the vanilla
  * periodogram exactly.
  */
object HuberPeriodogram {

  /** Vanilla periodogram P_k = |X_k|²/n, full range k = 0..n−1. */
  def vanilla(x: Array[Double]): Array[Double] = power(FFT.forward(x), x.length, x.length)

  /** |X_k|²/n for k = 0..count−1 of an interleaved spectrum of length 2n. */
  private def power(spec: Array[Double], n: Int, count: Int): Array[Double] =
    Array.tabulate(count) { k =>
      val re = spec(2 * k); val im = spec(2 * k + 1)
      (re * re + im * im) / n
    }

  /** Half-range periodogram (indices 0..n/2) with the exact Huber
    * M-estimate on `exactBand` (inclusive index range) and the vanilla
    * periodogram elsewhere.
    *
    * One FFT serves both the vanilla ordinates and each exact ordinate's
    * least-squares warm start: for 0 < k < n/2, φᵀφ = (n/2)·I, so
    * β_LS = (2·Re X_k, −2·Im X_k)/n. At k = 0 and the Nyquist index the
    * regressor pair is degenerate, and the ordinate stays vanilla.
    * Every exact ordinate reads one cos/sin(2πm/n) table at m = k·t mod n,
    * so no error accrues along t as it would with a rotation recurrence.
    * `maxIter` caps the solver's passes over the data per ordinate.
    */
  def spliced(x: Array[Double], exactBand: (Int, Int), zeta: Double,
              maxIter: Int = 50): Array[Double] = {
    val n    = x.length
    val half = n / 2
    val spec = FFT.forward(x)
    val out  = power(spec, n, half + 1)
    val lo   = math.max(1, exactBand._1)
    val hi   = math.min((n - 1) / 2, exactBand._2)
    if (lo <= hi) {
      val cos = Array.tabulate(n)(m => math.cos(2 * math.Pi * m / n))
      val sin = Array.tabulate(n)(m => math.sin(2 * math.Pi * m / n))
      var k   = lo
      while (k <= hi) {
        out(k) = huberAtK(x, cos, sin, k, zeta, maxIter,
                          2.0 * spec(2 * k) / n, -2.0 * spec(2 * k + 1) / n)
        k += 1
      }
    }
    out
  }

  /** Exact Huber M-periodogram at every index 0..n/2 (used by ablations). */
  def huberFull(x: Array[Double], zeta: Double, maxIter: Int = 50): Array[Double] =
    spliced(x, (1, x.length / 2), zeta, maxIter)

  /** P^M_k = (n/4)·‖β̂‖² with β̂ = argmin f(β) = Σ_t γ_ζ(φ_t β − x_t),
    * φ_t = [cos(2πkt/n), sin(2πkt/n)], started at the least-squares β.
    *
    * Each iteration is one pass over the data at the current β that sums
    * the objective f, the gradient g = Σ φ ψ(r), the Newton Hessian
    * H_N = Σ_{|r|≤ζ} φφᵀ and the IRLS Hessian H_I = Σ min(1, ζ/|r|) φφᵀ.
    * The step is −H_N⁻¹g when H_N is well conditioned and −H_I⁻¹g
    * otherwise. −H_I⁻¹g is the weighted-least-squares (IRLS) update, a
    * majorize–minimize step that cannot raise f (Holland & Welsch 1977),
    * so an iterate whose objective rose is discarded and the IRLS step
    * from the last accepted one is taken instead; should that step raise
    * f too, the rise is rounding and the accepted iterate is final.
    * Otherwise stops when ‖Δβ‖ ≤ 1e-12·(1 + ‖β‖) or after `maxIter`
    * passes.
    */
  private def huberAtK(x: Array[Double], cos: Array[Double], sin: Array[Double],
                       k: Int, zeta: Double, maxIter: Int,
                       ls1: Double, ls2: Double): Double = {
    val n = x.length
    // Last accepted iterate, its objective and its IRLS step.
    var a1 = ls1; var a2 = ls2
    var fa = Double.PositiveInfinity
    var i1 = 0.0; var i2 = 0.0
    // Iterate to evaluate next, and whether it came from an IRLS step.
    var b1 = ls1; var b2 = ls2
    var viaIrls = false
    var it = 0
    var done = false
    while (it < maxIter && !done) {
      var f = 0.0; var g1 = 0.0; var g2 = 0.0
      var n11 = 0.0; var n12 = 0.0; var n22 = 0.0
      var w11 = 0.0; var w12 = 0.0; var w22 = 0.0
      var t = 0; var idx = 0
      while (t < n) {
        val c = cos(idx); val s = sin(idx)
        val r = c * b1 + s * b2 - x(t)
        val cc = c * c; val cs = c * s; val ss = s * s
        if (math.abs(r) <= zeta) {
          f += 0.5 * r * r
          g1 += c * r; g2 += s * r
          n11 += cc; n12 += cs; n22 += ss
          w11 += cc; w12 += cs; w22 += ss
        } else {
          val ar = math.abs(r)
          val psi = if (r > 0) zeta else -zeta
          f += zeta * ar - 0.5 * zeta * zeta
          g1 += c * psi; g2 += s * psi
          val w = zeta / ar
          w11 += w * cc; w12 += w * cs; w22 += w * ss
        }
        t += 1
        idx += k
        if (idx >= n) idx -= n
      }
      it += 1
      var d1 = i1; var d2 = i2 // a rejected iterate retries a's IRLS step
      if (f <= fa) {
        a1 = b1; a2 = b2; fa = f
        val wDet = w11 * w22 - w12 * w12
        i1 = -(w22 * g1 - w12 * g2) / wDet
        i2 = -(w11 * g2 - w12 * g1) / wDet
        val nTr  = n11 + n22
        val nDet = n11 * n22 - n12 * n12
        viaIrls = !(nDet > 1e-6 * nTr * nTr) // λ_min/λ_max of H_N ≲ 1e-6
        if (viaIrls) { d1 = i1; d2 = i2 }
        else {
          d1 = -(n22 * g1 - n12 * g2) / nDet
          d2 = -(n11 * g2 - n12 * g1) / nDet
        }
      } else if (viaIrls) done = true // an IRLS step cannot raise f: rounding
      else viaIrls = true
      done ||= !(math.hypot(d1, d2) > 1e-12 * (1.0 + math.hypot(a1, a2)))
      b1 = a1 + d1; b2 = a2 + d2
    }
    n / 4.0 * (a1 * a1 + a2 * a2)
  }
}
