package repro.baselines

import repro.core.{ACF, HuberPeriodogram}

/** SAZED baseline (Toller, Santos & Kern 2019): a parameter-free ensemble
  * of three season-length estimators — S (spectral density argmax),
  * A (largest local ACF maximum), Z (mean zero-crossing distance) — each
  * applied to the series and to its ACF ("self-composition"), giving six
  * votes.
  *
  * `SazedMaj` takes the modal vote (candidates clustered within 10%);
  * `SazedOpt` re-expresses the paper's optimal ensemble by picking the
  * candidate with the strongest ACF evidence at its own multiples.
  */
object Sazed {

  /** S: dominant frequency of the periodogram → period. */
  def spectral(x: Array[Double]): Option[Int] = {
    val n = x.length
    val p = HuberPeriodogram.vanilla(x)
    var best = 0.0; var kb = 0
    var k = 1
    while (k <= n / 2) { if (p(k) > best) { best = p(k); kb = k }; k += 1 }
    if (kb <= 0) None
    else {
      val per = math.round(n.toDouble / kb).toInt
      if (per >= 2 && per <= n / 2) Some(per) else None
    }
  }

  /** A: lag of the largest interior local maximum of a series' ACF `a`. */
  def acfPeak(a: Array[Double]): Option[Int] = {
    var best = Double.NegativeInfinity; var lag = -1
    var t = 2
    while (t < a.length - 1) {
      if (a(t) >= a(t - 1) && a(t) >= a(t + 1) && a(t) > best) { best = a(t); lag = t }
      t += 1
    }
    if (lag >= 2 && lag <= a.length / 2) Some(lag) else None
  }

  /** Z: average distance between zero crossings, doubled (a full period has
    * two crossings of the mean).
    */
  def zeroCrossing(x: Array[Double]): Option[Int] = {
    val m = x.sum / x.length
    val crossings = scala.collection.mutable.ArrayBuffer.empty[Int]
    var t = 1
    while (t < x.length) {
      if ((x(t - 1) - m) * (x(t) - m) < 0) crossings += t
      t += 1
    }
    if (crossings.length < 2) None
    else {
      val mean = (crossings.last - crossings.head).toDouble / (crossings.length - 1)
      val per  = math.round(2 * mean).toInt
      if (per >= 2 && per <= x.length / 2) Some(per) else None
    }
  }

  /** The six ensemble votes (S, A, Z on x; S, A, Z on its ACF `a`). */
  def candidates(x: Array[Double], a: Array[Double]): Seq[Int] =
    (Seq(spectral(x), acfPeak(a), zeroCrossing(x)) ++
      Seq(spectral(a), acfPeak(ACF.biased(a)), zeroCrossing(a))).flatten

  /** ACF evidence of period p: mean peak *prominence* at its multiples —
    * ACF at m·p minus the mean ACF at the flanking half-period offsets.
    * Raw ACF height would trivially favour tiny periods on any smooth ACF
    * (acf(2) ≈ 1 for slow oscillations); prominence is ≈ 0 there and ≈ 2
    * at a true period.
    */
  def acfEvidence(acf: Array[Double], p: Int): Double = {
    if (p < 2 || p >= acf.length) return Double.NegativeInfinity
    val half = p / 2
    val ms = Iterator.from(1).map(_ * p).takeWhile(_ + half < acf.length).take(4).toSeq
    if (ms.isEmpty) Double.NegativeInfinity
    else ms.map { m =>
      val trough = 0.5 * (acf(m - half) + acf(m + half))
      acf(m) - trough
    }.sum / ms.size
  }

  /** Cluster candidates within 10% and return (clusterMedian, size) pairs. */
  def clusters(cands: Seq[Int]): Seq[(Int, Int)] = {
    val sorted = cands.sorted
    val groups = scala.collection.mutable.ArrayBuffer.empty[scala.collection.mutable.ArrayBuffer[Int]]
    sorted.foreach { c =>
      if (groups.nonEmpty && c - groups.last.last <= math.max(1, (0.1 * c).toInt))
        groups.last += c
      else groups += scala.collection.mutable.ArrayBuffer(c)
    }
    groups.map(g => (g(g.length / 2), g.length)).toSeq
  }
}

object SazedMaj extends Detrended("SAZED_maj") {
  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val a     = ACF.biased(x)
    val cands = Sazed.candidates(x, a)
    if (cands.isEmpty) return Seq.empty
    val cl = Sazed.clusters(cands)
    val maxSize = cl.map(_._2).max
    // Modal cluster; ties broken by ACF evidence.
    Seq(cl.filter(_._2 == maxSize).maxBy(c => Sazed.acfEvidence(a, c._1))._1)
  }
}

object SazedOpt extends Detrended("SAZED_opt") {
  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val a     = ACF.biased(x)
    val cands = Sazed.candidates(x, a).distinct
    if (cands.isEmpty) return Seq.empty
    Seq(cands.maxBy(c => Sazed.acfEvidence(a, c)))
  }
}
