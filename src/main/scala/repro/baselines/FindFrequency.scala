package repro.baselines

import repro.core.RobustStats

/** `findFrequency` baseline (Hyndman's R `forecast::findfrequency`):
  * remove a linear trend, fit an AR model by Yule–Walker with AIC order
  * selection, and return the period of the dominant AR spectral-density
  * peak — or no period when the spectrum has no strong peak.
  */
object FindFrequency extends Detrended("findFrequency") {

  protected def detectDetrended(x: Array[Double]): Seq[Int] = {
    val n = x.length
    if (n < 8) return Seq.empty
    // Residuals of a linear fit (findfrequency uses tslm(x ~ trend)).
    val r = linearResiduals(x)
    val maxOrder = math.min(n - 1, math.max(1, (10 * math.log10(n.toDouble)).toInt))
    val (ar, sigma2) = fitARbyAIC(r, maxOrder)
    if (ar.isEmpty) return Seq.empty
    // AR spectral density on 500 frequencies in (0, 0.5].
    val nf = 500
    var bestF = 0.0
    var bestS = 0.0
    var i = 1
    while (i <= nf) {
      val f = 0.5 * i / nf
      var re = 1.0; var im = 0.0
      var j = 0
      while (j < ar.length) {
        val ang = -2 * math.Pi * f * (j + 1)
        re -= ar(j) * math.cos(ang)
        im -= ar(j) * math.sin(ang)
        j += 1
      }
      val s = sigma2 / (2 * math.Pi * (re * re + im * im))
      if (s > bestS) { bestS = s; bestF = f }
      i += 1
    }
    // R: only accept when max spectrum > 10 (on its variance-scaled units);
    // we scale equivalently by working on standardized residuals.
    if (bestS > 10.0 * RobustStats.variance(r) && bestF > 0) {
      val period = math.round(1.0 / bestF).toInt
      if (period > 1 && period <= n) Seq(period) else Seq.empty
    } else Seq.empty
  }

  private def linearResiduals(x: Array[Double]): Array[Double] = {
    val n  = x.length
    val tm = (n - 1) / 2.0
    val xm = x.sum / n
    var num = 0.0; var den = 0.0
    var i = 0
    while (i < n) { num += (i - tm) * (x(i) - xm); den += (i - tm) * (i - tm); i += 1 }
    val b = if (den > 0) num / den else 0.0
    Array.tabulate(n)(i => x(i) - xm - b * (i - tm))
  }

  /** Yule–Walker AR fit with Levinson–Durbin recursion; order chosen by AIC
    * over 0..maxOrder. Returns (coefficients, innovation variance).
    */
  def fitARbyAIC(x: Array[Double], maxOrder: Int): (Array[Double], Double) = {
    val n = x.length
    val m = x.sum / n
    val c = Array.tabulate(maxOrder + 1) { lag =>
      var s = 0.0
      var t = 0
      while (t < n - lag) { s += (x(t) - m) * (x(t + lag) - m); t += 1 }
      s / n
    }
    if (c(0) <= 0) return (Array.empty, 0.0)
    var bestAic   = n * math.log(c(0)) + 2.0 // order 0
    var bestCoefs = Array.empty[Double]
    var bestSigma = c(0)
    var a = new Array[Double](0)
    var e = c(0)
    var p = 1
    while (p <= maxOrder && e > 1e-12) {
      var acc = c(p)
      var j = 0
      while (j < a.length) { acc -= a(j) * c(p - 1 - j); j += 1 }
      val k = acc / e
      val na = new Array[Double](p)
      var j2 = 0
      while (j2 < p - 1) { na(j2) = a(j2) - k * a(p - 2 - j2); j2 += 1 }
      na(p - 1) = k
      a = na
      e = e * (1 - k * k)
      val aic = n * math.log(math.max(e, 1e-300)) + 2.0 * (p + 1)
      if (aic < bestAic) { bestAic = aic; bestCoefs = a.clone(); bestSigma = e }
      p += 1
    }
    (bestCoefs, bestSigma)
  }
}
