package repro.baselines

import repro.core.{ACF, FFT, HuberPeriodogram}

/** AUTOPERIOD baseline (Vlachos, Yu & Castelli 2005): periodogram "power
  * threshold" from permuted sequences selects candidate period hills; each
  * candidate is validated on the ACF — it must lie on a *hill* (rising
  * then falling ACF segment) — and refined to the local ACF maximum.
  * The threshold is sorted index ⌊0.99·100⌋ = 99 of the 100 permutation
  * maxima drawn from `seed`, which is the largest of them.
  */
class AutoPeriod(seed: Long) extends Detrended("AUTOPERIOD") {

  private val Permutations = 100
  private val Percentile   = 0.99

  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val n     = x.length
    val pHalf = HuberPeriodogram.vanilla(x)
    val acf   = ACF.biased(x)
    val maxima = permutationMaxima(x)
    java.util.Arrays.sort(maxima)
    val thresh = maxima(math.min(Permutations - 1, (Percentile * Permutations).toInt))
    candidatesValidated(pHalf, acf, n, thresh)
  }

  /** Permutation power threshold's samples: for each of the 100
    * shuffles of x, max_{1≤k≤n/2} |X_k|²/n, in shuffle order. Shuffling
    * destroys periodic structure while preserving the marginal
    * distribution; the largest of these maxima separates signal from
    * noise bins.
    *
    * Shuffles 2p and 2p+1 share one complex transform: [[shufflePair]]
    * puts them in the real and imaginary slots of one interleaved buffer,
    * so the cached plan runs 50 times, not 100 (`Permutations` is even).
    * With Z_k = zr + i·zi and Z_{n−k} = wr + i·wi, the two real spectra are
    * |A_k|² = ((zr + wr)² + (zi − wi)²)/4 and
    * |B_k|² = ((zi + wi)² + (zr − wr)²)/4 (Cooley, Lewis & Welch 1970).
    */
  def permutationMaxima(x: Array[Double]): Array[Double] = {
    val n    = x.length
    val rnd  = new Lcg48(seed)
    val plan = FFT.plan(n)
    val buf  = new Array[Double](2 * n)
    val out  = new Array[Double](Permutations)
    var p = 0
    while (p < Permutations) {
      shufflePair(x, rnd, buf)
      plan.complexForward(buf)
      // Rounding is monotone: the largest sum scaled once has the bits
      // of the largest scaled sum.
      var ma = 0.0; var mb = 0.0
      var k  = 1
      while (k <= n / 2) {
        val zr = buf(2 * k); val zi = buf(2 * k + 1)
        val wr = buf(2 * (n - k)); val wi = buf(2 * (n - k) + 1)
        val sr = zr + wr; val di = zi - wi
        val si = zi + wi; val dr = zr - wr
        ma = math.max(ma, sr * sr + di * di)
        mb = math.max(mb, si * si + dr * dr)
        k += 1
      }
      out(p) = ma / (4.0 * n); out(p + 1) = mb / (4.0 * n)
      p += 2
    }
    out
  }

  /** Two shuffles of x into the interleaved `buf` (length 2n): the first
    * into the real slots, the second into the imaginary ones. Each is the
    * Fisher–Yates pass of `scala.util.Random.shuffle` on a fresh copy of x
    * (same draws from [[Lcg48]], same swaps), run in place.
    */
  private[baselines] def shufflePair(x: Array[Double], rnd: Lcg48, buf: Array[Double]): Unit = {
    val n = x.length
    var t = 0
    while (t < n) { buf(2 * t) = x(t); buf(2 * t + 1) = x(t); t += 1 }
    var slot = 0
    while (slot < 2) {
      var i = n
      while (i >= 2) {
        val a = 2 * (i - 1) + slot; val b = 2 * rnd.nextInt(i) + slot
        val tmp = buf(a); buf(a) = buf(b); buf(b) = tmp
        i -= 1
      }
      slot += 1
    }
  }

  /** Candidate bins above `thresh`, hill-validated and refined on the ACF. */
  def candidatesValidated(pHalf: Array[Double], acf: Array[Double], n: Int,
                          thresh: Double): Seq[Int] = {
    val cands = (2 until pHalf.length)
      .filter(pHalf(_) > thresh)
      .sortBy(k => -pHalf(k))
      .map(k => n.toDouble / k)
    distinctPeriods(cands.flatMap(hillValidate(acf, _, n))).filter(p => p >= 2 && p <= n / 2)
  }

  /** `refined` in order, less each period within max(1, 0.05·p) of one
    * already kept: the de-duplication of hill-validated candidates.
    */
  private[baselines] def distinctPeriods(refined: Seq[Int]): Seq[Int] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Int]
    refined.foreach { p =>
      if (!out.exists(o => math.abs(o - p) <= math.max(1, 0.05 * p))) out += p
    }
    out.toSeq
  }

  /** A candidate is kept iff it lies on an ACF hill: within the candidate's
    * periodogram-resolution window, the two-segment line fit around the
    * window argmax must rise then fall (the original paper's criterion);
    * the refined period is that argmax.
    */
  def hillValidate(acf: Array[Double], candidate: Double, n: Int): Option[Int] = {
    val k  = math.max(2, math.round(n / candidate).toInt)
    val lo = math.max(2, math.floor(n.toDouble / (k + 1)).toInt)
    val hi = math.min(acf.length - 2, math.ceil(n.toDouble / (k - 1)).toInt)
    if (hi - lo < 2) return None
    val seg   = (lo to hi).toArray
    val tStar = seg.maxBy(acf(_))
    if (tStar == lo || tStar == hi) return None
    val left  = slope(seg.filter(_ <= tStar), acf)
    val right = slope(seg.filter(_ >= tStar), acf)
    if (left > 0 && right < 0) Some(tStar) else None
  }

  private def slope(idx: Array[Int], acf: Array[Double]): Double = {
    if (idx.length < 2) return 0.0
    val xm = idx.sum.toDouble / idx.length
    val ym = idx.map(acf(_)).sum / idx.length
    var num = 0.0; var den = 0.0
    idx.foreach { i => num += (i - xm) * (acf(i) - ym); den += (i - xm) * (i - xm) }
    if (den > 0) num / den else 0.0
  }
}

object AutoPeriod extends AutoPeriod(7)

/** `java.util.Random`'s 48-bit LCG without its atomic seed: the same seed
  * scrambling, `next(31)` and `nextInt(bound)` (power-of-two and rejection
  * branches), so its draws equal `new Random(seed).nextInt`'s. Not
  * thread-safe.
  */
private[baselines] final class Lcg48(seed0: Long) {
  private var seed = (seed0 ^ 0x5DEECE66DL) & 0xFFFFFFFFFFFFL

  private def next31(): Int = {
    seed = (seed * 0x5DEECE66DL + 0xBL) & 0xFFFFFFFFFFFFL
    (seed >>> 17).toInt
  }

  /** Uniform in [0, bound), bound > 0. */
  def nextInt(bound: Int): Int = {
    val m = bound - 1
    var u = next31()
    if ((bound & m) == 0) return ((bound * u.toLong) >> 31).toInt
    var r = u % bound
    while (u - r + m < 0) { u = next31(); r = u % bound }
    r
  }
}
