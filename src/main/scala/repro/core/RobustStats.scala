package repro.core

import repro.numerics.DoubleArrays

/** Robust statistics substrate: median, MAD, biweight midvariance (Eq. 4)
  * and median/MAD standardization.
  */
object RobustStats {

  /** Scale factor that makes the MAD a consistent σ estimator under
    * Gaussian data (1 / Φ⁻¹(3/4)).
    */
  val MadToSigma: Double = 1.4826022185056018

  def median(x: Array[Double]): Double = medianInPlace(x.clone())

  /** Median and raw MAD (multiply by [[MadToSigma]] for σ̂) of
    * `x(from until x.length)`, from one scratch copy: the MAD's deviations
    * overwrite the copy the median left permuted.
    */
  def medianMad(x: Array[Double], from: Int = 0): (Double, Double) = {
    val s   = java.util.Arrays.copyOfRange(x, from, x.length)
    val med = medianInPlace(s)
    var i   = 0
    while (i < s.length) { s(i) = math.abs(s(i) - med); i += 1 }
    (med, medianInPlace(s))
  }

  /** Median of `s`, which it permutes: the middle order statistic, or the
    * mean of the two middle ones, each bit for bit the element
    * `java.util.Arrays.sort` would put at that index. An input holding NaN
    * is sorted.
    */
  private def medianInPlace(s: Array[Double]): Double = {
    val n = s.length
    require(n > 0, "median of empty array")
    val k = n / 2
    var i = 0
    while (i < n && !java.lang.Double.isNaN(s(i))) i += 1
    if (i < n) {
      java.util.Arrays.sort(s)
      return if (n % 2 == 1) s(k) else 0.5 * (s(k - 1) + s(k))
    }
    select(s, k)
    if (n % 2 == 1) return sortedSign(s, k)
    // Rank k − 1 is the largest of the k values before s(k).
    var m = 0
    i = 1
    while (i < k) { if (s(i) > s(m)) m = i; i += 1 }
    swap(s, m, k - 1)
    0.5 * (sortedSign(s, k - 1) + sortedSign(s, k))
  }

  /** Permutes NaN-free `s` so that `s(k)` holds the value of rank k, with
    * no larger value before it and no smaller one after. Quickselect
    * (Hoare's FIND) with a median-of-3 pivot; after 2⌈log₂ n⌉ partition
    * rounds it sorts what is left, so the worst case stays O(n log n).
    */
  private def select(s: Array[Double], k: Int): Unit = {
    var lo     = 0
    var hi     = s.length - 1
    var rounds = 2 * (32 - Integer.numberOfLeadingZeros(s.length - 1))
    while (lo < hi) {
      if (rounds == 0) { java.util.Arrays.sort(s, lo, hi + 1); return }
      rounds -= 1
      val mid = (lo + hi) >>> 1
      if (s(mid) < s(lo)) swap(s, lo, mid)
      if (s(hi) < s(lo)) swap(s, lo, hi)
      if (s(hi) < s(mid)) swap(s, mid, hi)
      val pivot = s(mid)
      var i = lo
      var j = hi
      while (i <= j) {
        while (s(i) < pivot) i += 1
        while (pivot < s(j)) j -= 1
        if (i <= j) { swap(s, i, j); i += 1; j -= 1 }
      }
      if (k <= j) hi = j
      else if (k >= i) lo = i
      else return // s(j + 1 until i) all equal the pivot
    }
  }

  private def swap(s: Array[Double], a: Int, b: Int): Unit = {
    val t = s(a); s(a) = s(b); s(b) = t
  }

  /** `s(rank)` with the sign of zero the sort gives it: the sort puts the
    * values whose sign bit is set (negatives and −0.0) first.
    */
  private def sortedSign(s: Array[Double], rank: Int): Double = {
    if (s(rank) != 0.0) return s(rank)
    var signed = 0
    var i      = 0
    while (i < s.length) { if (java.lang.Double.doubleToRawLongBits(s(i)) < 0) signed += 1; i += 1 }
    if (rank < signed) -0.0 else 0.0
  }

  /** Population variance of `x(from until x.length)`, summed left to right. */
  def variance(x: Array[Double], from: Int = 0): Double = {
    val len = x.length - from
    var sum = 0.0
    var i   = from
    while (i < x.length) { sum += x(i); i += 1 }
    val m  = sum / len
    var ss = 0.0
    i = from
    while (i < x.length) { ss += (x(i) - m) * (x(i) - m); i += 1 }
    ss / len
  }

  /** Biweight midvariance of `x(from until x.length)` — the robust unbiased
    * wavelet variance of Eq. 4, where `from = L_j − 1` excludes the MODWT
    * boundary coefficients.
    *
    *   ν² = M · Σ (x−Med)² (1−u²)⁴ I(|u|<1) / [Σ (1−u²)(1−5u²) I(|u|<1)]²,
    *   u  = (x − Med) / (9·MAD).
    *
    * Follows the biweight-midvariance literature (Wilcox) in using the
    * *median* absolute deviation (see DESIGN.md §5 on the paper's "mean"
    * wording). Falls back to the sample variance when MAD = 0.
    */
  def biweightMidvariance(x: Array[Double], from: Int = 0): Double = {
    val start = math.max(0, from)
    val len   = x.length - start
    if (len < 2) return 0.0
    val (med, m) = medianMad(x, start)
    if (m == 0.0) return variance(x, start)
    var num = 0.0
    var den = 0.0
    var i   = start
    while (i < x.length) {
      val d = x(i) - med
      val u = d / (9.0 * m)
      if (math.abs(u) < 1.0) {
        val one = 1.0 - u * u
        num += d * d * one * one * one * one
        den += one * (1.0 - 5.0 * u * u)
      }
      i += 1
    }
    if (den == 0.0) 0.0 else len * num / (den * den)
  }

  /** Standardize by median/MAD (σ-consistent); if MAD is zero, fall back to
    * mean/σ; a constant series maps to zeros.
    */
  def robustStandardize(x: Array[Double]): Array[Double] = {
    val (med, m) = medianMad(x)
    val s   = m * MadToSigma
    val sc  = if (s > 0) s else math.sqrt(variance(x))
    if (sc == 0.0) Array.fill(x.length)(0.0)
    else DoubleArrays.map(x)(v => (v - med) / sc)
  }
}
