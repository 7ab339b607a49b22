package repro.baselines

import repro.core.{FisherTest, HuberPeriodogram}

/** Siegel's compound-periodicity test (Siegel 1980; Walden 1992 gives the
  * percentage points): extends Fisher's test by flagging *every*
  * normalized periodogram ordinate exceeding λ·g_F, with g_F the Fisher
  * critical value at level α and λ = 0.6.
  *
  * Spectral leakage spreads a sinusoid over adjacent bins, so significant
  * bins are clustered and each cluster reports one period (its max-power
  * bin) — without clustering the test would emit runs of near-identical
  * periods.
  */
object SiegelDetector extends Detrended("Siegel") {

  private val Alpha      = 0.05
  private val Lambda     = 0.6
  private val MaxPeriods = 10

  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    detectFromPeriodogram(HuberPeriodogram.vanilla(x), x.length)
  }

  /** Shared with the Huber-Siegel ablation: run on any half-range
    * periodogram of an n-point series.
    */
  def detectFromPeriodogram(pHalf: Array[Double], n: Int): Seq[Int] = {
    val hi  = pHalf.length - 1
    var sum = 0.0
    var k   = 1
    while (k <= hi) { sum += pHalf(k); k += 1 }
    if (sum <= 0) return Seq.empty
    val gF     = FisherTest.criticalG(Alpha, hi)
    val thresh = Lambda * gF * sum
    val sig    = (1 to hi).filter(pHalf(_) > thresh)
    if (sig.isEmpty) return Seq.empty
    // Cluster consecutive significant bins; report each cluster's peak.
    val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]
    var cluster = scala.collection.mutable.ArrayBuffer(sig.head)
    def flush(): Unit = {
      val kb = cluster.maxBy(pHalf(_))
      out += ((math.round(n.toDouble / kb).toInt, pHalf(kb)))
      cluster = scala.collection.mutable.ArrayBuffer.empty
    }
    sig.tail.foreach { s =>
      if (s == cluster.last + 1) cluster += s
      else { flush(); cluster += s }
    }
    flush()
    out.filter { case (per, _) => per >= 2 && per <= n / 2 }
      .sortBy(-_._2)
      .map(_._1)
      .distinct
      .take(MaxPeriods)
      .toSeq
  }
}
