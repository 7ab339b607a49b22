package repro.core

import repro.numerics.DoubleArrays

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

  /** Vanilla periodogram P_k = |X_k|²/n, half range k = 0..n/2. */
  def vanilla(x: Array[Double]): Array[Double] = power(FFT.forward(x), x.length)

  /** |X_k|²/n for k = 0..n/2 of an interleaved spectrum of length 2n. */
  private def power(spec: Array[Double], n: Int): Array[Double] =
    DoubleArrays.tabulate(n / 2 + 1) { k =>
      val re = spec(2 * k); val im = spec(2 * k + 1)
      (re * re + im * im) / n
    }

  /** Half-range periodogram (indices 0..n/2) with the exact Huber
    * M-estimate on `exactBand` (inclusive index range) and the vanilla
    * periodogram elsewhere: [[Spliced]] with both parities solved.
    */
  def spliced(x: Array[Double], exactBand: (Int, Int), zeta: Double, maxIter: Int): Array[Double] = {
    val sp = new Spliced(x, exactBand, zeta, maxIter)
    sp.solveEven()
    sp.solveOdd()
  }

  /** Exact Huber M-periodogram at every index 0..n/2 (used by ablations). */
  def huberFull(x: Array[Double], zeta: Double, maxIter: Int): Array[Double] =
    spliced(x, (1, x.length / 2), zeta, maxIter)

  /** The spliced periodogram of one series, its exact band solved one
    * parity at a time: each exact ordinate is solved independently of the
    * others, so a caller that reads only even ordinates can skip the odd
    * ones, and solving both gives the same array in either order.
    *
    * One FFT serves the vanilla ordinates, each exact ordinate's
    * least-squares warm start and its closed-form sums: for 0 < k < n/2,
    * φᵀφ = (n/2)·I and φᵀx = (Re X_k, −Im X_k), so
    * β_LS = (2·Re X_k, −2·Im X_k)/n. At k = 0 and the Nyquist index the
    * regressor pair is degenerate, and the ordinate stays vanilla.
    * Every exact ordinate reads the length-n plan's cos/sin(2πm/n) table
    * at m = k·t mod n, so no error accrues along t as it would with a
    * rotation recurrence. `maxIter` caps the iterates the solver evaluates
    * per ordinate.
    */
  final class Spliced(x: Array[Double], exactBand: (Int, Int), zeta: Double, maxIter: Int) {
    private val n    = x.length
    private val spec = FFT.forward(x)
    private val lo   = math.max(1, exactBand._1)
    private val hi   = math.min((n - 1) / 2, exactBand._2)

    /** Indices 0..n/2: vanilla until a parity's exact ordinates are solved. */
    val periodogram: Array[Double] = power(spec, n)

    // The solver's screening order, and sq(i) = Σ x_t² over the first i
    // keys, summed smallest first; built once per series if the band is
    // not empty.
    private val keys: Array[Long] = if (lo <= hi) screeningOrder(x) else Array.emptyLongArray
    private val sq: Array[Double] = {
      val s = new Array[Double](keys.length + 1)
      var i = 0
      while (i < keys.length) { val v = x(keys(i).toInt); s(i + 1) = s(i) + v * v; i += 1 }
      s
    }

    /** Solves the even exact ordinates; returns [[periodogram]]. */
    def solveEven(): Array[Double] = solve(0)

    /** Solves the odd exact ordinates; returns [[periodogram]]. */
    def solveOdd(): Array[Double] = solve(1)

    private def solve(parity: Int): Array[Double] = {
      if (lo <= hi) {
        val plan = FFT.plan(n)
        var k    = if ((lo & 1) == parity) lo else lo + 1
        while (k <= hi) {
          periodogram(k) = huberAtK(x, plan.cos, plan.sin, keys, sq, k, zeta, maxIter,
                                    spec(2 * k), -spec(2 * k + 1))
          k += 2
        }
      }
      periodogram
    }
  }

  /** The nonzero points of `x` as ascending keys
    * (bits of |x_t| rounded up to a float) << 32 | t. A nonnegative float's
    * bits order as its value, so the keys order the points by an upper
    * bound on |x_t|, ties by t.
    */
  private def screeningOrder(x: Array[Double]): Array[Long] = {
    var nnz = 0
    var t   = 0
    while (t < x.length) { if (x(t) != 0.0) nnz += 1; t += 1 }
    val keys = new Array[Long](nnz)
    var i = 0
    t = 0
    while (t < x.length) {
      val a = math.abs(x(t))
      if (a != 0.0) {
        var f = a.toFloat
        if (f < a) f = Math.nextUp(f)
        keys(i) = (java.lang.Float.floatToRawIntBits(f).toLong << 32) | t
        i += 1
      }
      t += 1
    }
    java.util.Arrays.sort(keys)
    keys
  }

  /** P^M_k = (n/4)·‖β̂‖² with β̂ = argmin f(β) = Σ_t γ_ζ(φ_t β − x_t),
    * φ_t = [cos(2πkt/n), sin(2πkt/n)], 0 < k < n/2, started at the
    * least-squares β = 2·(c1, c2)/n, where (c1, c2) = Σ_t φ_t x_t.
    *
    * Each iteration evaluates one iterate by one pass over the data that
    * sums the objective f, the gradient g = Σ φ ψ(r) and the Newton
    * Hessian H_N = Σ_{|r|≤ζ} φφᵀ, and steps by −H_N⁻¹g when H_N is well
    * conditioned. An iterate whose objective rose is discarded. If H_N is
    * ill conditioned or the iterate was discarded, the step is the IRLS
    * (weighted-least-squares) step −H_I⁻¹g from the last accepted iterate,
    * H_I = Σ min(1, ζ/|r|) φφᵀ, a majorize–minimize step that cannot raise
    * f (Holland & Welsch 1977); should it raise f all the same, the rise is
    * rounding and the accepted iterate is final. f "rose" only if it
    * exceeds the accepted objective by more than 2⁻⁴⁴ ≈ 5.7e-14 of the
    * summed magnitudes of both passes' terms, so an iterate that differs
    * from the accepted one by f's rounding alone is accepted and the
    * solver does not stop at that floor. Otherwise stops when
    * ‖Δβ‖ ≤ 1e-12·(1 + ‖β‖) or after `maxIter` iterates.
    *
    * Two-sided safe screening. At an iterate with ‖β‖ ≤ ζ every point with
    * |x_t| ≤ ζ − ‖β‖ is an inlier and every point with |x_t| ≥ ζ + ‖β‖ an
    * outlier, as |φ_tβ − x_t| lies within ‖β‖ of |x_t|.
    *  - Certain inliers are every zero and the prefix of `keys` whose upper
    *    bound on |x_t| is at most ζ − ‖β‖. A pass takes their
    *    least-squares sums in closed form: the totals
    *    Σ_t φ_tφ_tᵀ = (n/2)·I and Σ_t φ_t x_t = c less the other points'
    *    terms, and Σ x_t² from `sq`, summed from the small points so that
    *    large outliers do not cancel in it.
    *  - Certain outliers O are fixed once per ordinate for a margin
    *    B = min(ζ, 2‖β_LS‖ + 0.02): the suffix of `keys` whose lower bound
    *    on |x_t| is at least (ζ + B)(1 + 1e-9), the factor a margin far
    *    above the rounding of |φ_tβ| and of the test ‖β‖ ≤ B. While
    *    ‖β‖ ≤ B each of them has r_t of sign −sign(x_t) and |r_t| > ζ, so
    *    its terms are linear in β: one loop before the first pass sums
    *    Σ|x_t|, Σ φ_t x_t, S = Σ sign(x_t)·φ_t and Σ φ_tφ_tᵀ over O, and a
    *    pass adds ζΣ|x_t| − ζ·βᵀS − |O|ζ²/2 to f and −ζS to g, nothing to
    *    H_N, and takes O's terms out of the certified totals.
    *  - A pass visits only the keys in between, each point as the exact
    *    pass would. At B < ‖β‖ ≤ ζ it takes O as empty.
    *
    * The rare cases take [[exactPass]] over every point instead: an
    * iterate with ‖β‖ > ζ, where nothing is certified, and each IRLS step,
    * whose H_I and g it sums at the accepted iterate. No benchmark or
    * golden corpus reaches either; the ADMM comparisons of the tests do.
    */
  private def huberAtK(x: Array[Double], cos: Array[Double], sin: Array[Double],
                       keys: Array[Long], sq: Array[Double], k: Int, zeta: Double,
                       maxIter: Int, c1: Double, c2: Double): Double = {
    val n = x.length
    // The twiddle index k·t mod n in Int arithmetic while
    // k·t < n²/2 < 2³¹, that is for n < 65536, and in Long above.
    val narrow = n < 65536
    val ls1 = 2.0 * c1 / n; val ls2 = 2.0 * c2 / n
    // O = keys(oStart..): its Σ|x|, Σφx, S = Σ sign(x)φ and Σφφᵀ.
    val bO     = math.min(zeta, 2.0 * math.hypot(ls1, ls2) + 0.02)
    val oBound = (zeta + bO) * (1.0 + 1e-9)
    var oAbs = 0.0; var ox1 = 0.0; var ox2 = 0.0; var os1 = 0.0; var os2 = 0.0
    var o11 = 0.0; var o12 = 0.0; var o22 = 0.0
    var oStart = keys.length
    while (oStart > 0 &&
           Math.nextDown(java.lang.Float.intBitsToFloat((keys(oStart - 1) >>> 32).toInt)) >= oBound) {
      oStart -= 1
      val t = keys(oStart).toInt
      val idx = if (narrow) k * t % n else ((k.toLong * t) % n).toInt
      val c = cos(idx); val s = sin(idx); val v = x(t)
      oAbs += math.abs(v)
      ox1 += c * v; ox2 += s * v
      if (v > 0) { os1 += c; os2 += s } else { os1 -= c; os2 -= s }
      o11 += c * c; o12 += c * s; o22 += s * s
    }
    val oHalfZeta2 = 0.5 * zeta * zeta * (keys.length - oStart)
    // Last accepted iterate, its objective and the magnitude f was summed from.
    var a1 = ls1; var a2 = ls2
    var fa = Double.PositiveInfinity; var ma = 0.0
    // Iterate to evaluate next, and whether it came from an IRLS step.
    var b1 = ls1; var b2 = ls2
    var viaIrls = false
    var it = 0
    var done = false
    while (it < maxIter && !done) {
      var f = 0.0; var g1 = 0.0; var g2 = 0.0
      var n11 = 0.0; var n12 = 0.0; var n22 = 0.0
      var mag = 0.0
      val bb = b1 * b1 + b2 * b2
      if (bb <= zeta * zeta) {
        // Certified points' Σφφᵀ and Σφx: the totals less the visited
        // points' and O's terms.
        var p11 = n / 2.0; var p12 = 0.0; var p22 = n / 2.0
        var q1 = c1; var q2 = c2
        val usedO = bb <= bO * bO
        var i = if (usedO) oStart - 1 else keys.length - 1
        val certified = zeta - math.sqrt(bb)
        while (i >= 0 && java.lang.Float.intBitsToFloat((keys(i) >>> 32).toInt) > certified) {
          val t = keys(i).toInt
          val idx = if (narrow) k * t % n else ((k.toLong * t) % n).toInt
          val c = cos(idx); val s = sin(idx)
          val r = c * b1 + s * b2 - x(t)
          val cc = c * c; val cs = c * s; val ss = s * s
          p11 -= cc; p12 -= cs; p22 -= ss
          q1 -= c * x(t); q2 -= s * x(t)
          if (math.abs(r) <= zeta) {
            f += 0.5 * r * r
            g1 += c * r; g2 += s * r
            n11 += cc; n12 += cs; n22 += ss
          } else {
            val psi = if (r > 0) zeta else -zeta
            f += zeta * math.abs(r) - 0.5 * zeta * zeta
            g1 += c * psi; g2 += s * psi
          }
          i -= 1
        }
        mag = f // each visited point's term is nonnegative
        if (usedO) {
          p11 -= o11; p12 -= o12; p22 -= o22
          q1 -= ox1; q2 -= ox2
          val sb = b1 * os1 + b2 * os2
          f += zeta * (oAbs - sb) - oHalfZeta2
          mag += zeta * (oAbs + math.abs(sb)) + oHalfZeta2
          g1 -= zeta * os1; g2 -= zeta * os2
        }
        // The certified points: keys 0..i and the zeros, all inliers.
        val pb1 = p11 * b1 + p12 * b2; val pb2 = p12 * b1 + p22 * b2
        val bpb = b1 * pb1 + b2 * pb2; val bq = b1 * q1 + b2 * q2
        f += 0.5 * (bpb - 2.0 * bq + sq(i + 1))
        mag += 0.5 * (math.abs(bpb) + 2.0 * math.abs(bq) + sq(i + 1))
        g1 += pb1 - q1; g2 += pb2 - q2
        n11 += p11; n12 += p12; n22 += p22
      } else {
        val e = exactPass(x, cos, sin, k, zeta, b1, b2)
        f = e(0); g1 = e(1); g2 = e(2); n11 = e(3); n12 = e(4); n22 = e(5)
        mag = f // every term is nonnegative
      }
      it += 1
      var d1 = 0.0; var d2 = 0.0
      var irls = false
      if (f - fa <= RoundingAllowance * (mag + ma)) {
        a1 = b1; a2 = b2; fa = f; ma = mag
        val nTr  = n11 + n22
        val nDet = n11 * n22 - n12 * n12
        viaIrls = !(nDet > 1e-6 * nTr * nTr) // λ_min/λ_max of H_N ≲ 1e-6
        irls = viaIrls
        if (!viaIrls) {
          d1 = -(n22 * g1 - n12 * g2) / nDet
          d2 = -(n11 * g2 - n12 * g1) / nDet
        }
      } else if (viaIrls) done = true // an IRLS step cannot raise f: rounding
      else { viaIrls = true; irls = true } // retry from a with its IRLS step
      if (irls) {
        val e = exactPass(x, cos, sin, k, zeta, a1, a2)
        val h11 = e(6); val h12 = e(7); val h22 = e(8)
        val hDet = h11 * h22 - h12 * h12
        d1 = -(h22 * e(1) - h12 * e(2)) / hDet
        d2 = -(h11 * e(2) - h12 * e(1)) / hDet
      }
      done ||= !(math.hypot(d1, d2) > 1e-12 * (1.0 + math.hypot(a1, a2)))
      b1 = a1 + d1; b2 = a2 + d2
    }
    n / 4.0 * (a1 * a1 + a2 * a2)
  }

  /** One pass over t = 0..n−1 at β = (b1, b2), the twiddle index advanced
    * by k mod n: f, g, H_N and the IRLS Hessian H_I = Σ min(1, ζ/|r|)φφᵀ,
    * as (f, g1, g2, n11, n12, n22, w11, w12, w22).
    */
  private def exactPass(x: Array[Double], cos: Array[Double], sin: Array[Double], k: Int,
                        zeta: Double, b1: Double, b2: Double): Array[Double] = {
    val n = x.length
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
    Array(f, g1, g2, n11, n12, n22, w11, w12, w22)
  }

  /** Allowed rise of f, relative to the magnitude it was summed from. */
  private final val RoundingAllowance = 5.684341886080802e-14 // 2⁻⁴⁴
}
