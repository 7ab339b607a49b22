package repro.baselines

import repro.core.{ACF, FFT, HuberPeriodogram}

/** AUTOPERIOD baseline (Vlachos, Yu & Castelli 2005): periodogram "power
  * threshold" from permuted sequences selects candidate period hills; each
  * candidate is validated on the ACF — it must lie on a *hill* (rising
  * then falling ACF segment) — and refined to the local ACF maximum.
  * The threshold is the 99th percentile of 100 permutations drawn from
  * `seed`.
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
    * shuffles of x, max_{1≤k≤n/2} |X_k|²/n. Shuffling destroys periodic
    * structure while preserving the marginal distribution; the chosen
    * percentile of these maxima separates signal from noise bins.
    *
    * Each shuffle is the Fisher–Yates pass of `scala.util.Random.shuffle`
    * (same draws from [[Lcg48]], same swaps) run in place on one
    * interleaved complex buffer, which the cached plan then transforms.
    */
  def permutationMaxima(x: Array[Double]): Array[Double] = {
    val n    = x.length
    val rnd  = new Lcg48(seed)
    val plan = FFT.plan(n)
    val buf  = new Array[Double](2 * n)
    Array.fill(Permutations) {
      var t = 0
      while (t < n) { buf(2 * t) = x(t); buf(2 * t + 1) = 0.0; t += 1 }
      var i = n
      while (i >= 2) {
        val k = rnd.nextInt(i)
        val tmp = buf(2 * (i - 1)); buf(2 * (i - 1)) = buf(2 * k); buf(2 * k) = tmp
        i -= 1
      }
      plan.complexForward(buf)
      var mx = 0.0
      var k  = 1
      while (k <= n / 2) {
        val re = buf(2 * k); val im = buf(2 * k + 1)
        mx = math.max(mx, (re * re + im * im) / n)
        k += 1
      }
      mx
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
