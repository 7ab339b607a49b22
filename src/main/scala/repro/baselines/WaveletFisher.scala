package repro.baselines

import repro.core.{FisherTest, HuberPeriodogram, RobustPeriod}
import repro.wavelet.DWT

/** Wavelet-Fisher baseline (Almasri 2011): decimated DWT decouples
  * periodicities; Fisher's test runs on the periodogram of each level's
  * detail coefficients; a significant level-j detection at coefficient
  * period q maps back to original-scale period q·2^j.
  */
object WaveletFisher extends Detrended("Wavelet-Fisher") {

  private val Alpha        = 0.01
  private val WaveletOrder = 4
  private val MaxLevels    = 8

  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val n = x.length
    val minLen = 8 * WaveletOrder
    val levels = math.max(1, math.min(MaxLevels,
      (math.log(n.toDouble / minLen) / math.log(2.0)).toInt))
    if ((n >> levels) << levels < 2 * WaveletOrder) return Seq.empty
    val dec = DWT.transform(x, levels, WaveletOrder)
    val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
    var j = 1
    while (j <= levels) {
      val d  = dec.details(j - 1)
      val nl = d.length
      if (nl >= 16) {
        val pHalf  = HuberPeriodogram.vanilla(d)
        val fisher = FisherTest.test(pHalf)
        if (fisher.pValue < Alpha && fisher.kMax >= 1) {
          val per = math.round((nl.toDouble / fisher.kMax) * (1 << j)).toInt
          if (per >= 2 && per <= n / 2) out += ((per, fisher.pValue))
        }
      }
      j += 1
    }
    // Most significant first; dedupe near-equal periods across levels.
    RobustPeriod.dedupe(out.sortBy(_._2).map(_._1).toSeq)
  }
}
