package repro.forecast

import repro.numerics.Banded

/** TBATS substitute for the downstream forecasting study (Table 6): a
  * multi-seasonal harmonic regression — Fourier terms for each supplied
  * period plus a linear trend — fit by ridge-regularized least squares.
  *
  * Why this substitution is faithful: Table 6 uses the forecaster only to
  * translate a *detected period set* into out-of-sample error. Like TBATS,
  * harmonic regression under-fits structurally when a true period is
  * missing from the set and wastes degrees of freedom on false periods, so
  * the ranking across detection algorithms is preserved (DESIGN.md §4).
  */
object HarmonicForecaster {

  final case class Model(periods: Seq[Int], harmonics: Seq[Int], coefs: Array[Double]) {
    def predict(t: Double): Double = {
      var y = coefs(0) + coefs(1) * t
      var c = 2
      periods.zip(harmonics).foreach { case (p, hk) =>
        var k = 1
        while (k <= hk) {
          val w = 2 * math.Pi * k * t / p
          y += coefs(c) * math.cos(w) + coefs(c + 1) * math.sin(w)
          c += 2
          k += 1
        }
      }
      y
    }
  }

  /** Ridge weight: the normal matrix is AᵀA + Ridge·n·I. */
  private val Ridge = 1e-4

  /** Fit on `train` (t = 0..n−1) with K = min(3, p/2) harmonics per period. */
  def fit(train: Array[Double], periods: Seq[Int]): Model = {
    val usable = periods.distinct.filter(p => p >= 2 && p <= train.length).sorted
    val harm   = usable.map(p => math.min(3, p / 2))
    val dim    = 2 + 2 * harm.sum
    val n      = train.length
    // Design matrix row for time t.
    def row(t: Int): Array[Double] = {
      val r = new Array[Double](dim)
      r(0) = 1.0; r(1) = t.toDouble / n // scaled trend for conditioning
      var c = 2
      usable.zip(harm).foreach { case (p, hk) =>
        var k = 1
        while (k <= hk) {
          val w = 2 * math.Pi * k * t / p
          r(c) = math.cos(w); r(c + 1) = math.sin(w)
          c += 2
          k += 1
        }
      }
      r
    }
    // Upper triangle of the ridge normal matrix in `Banded`'s storage, entry
    // (i, j ≥ i) at band(j − i)(i), bandwidth dim − 1. The ridge makes it
    // SPD, so the banded Cholesky solves it.
    val band = Array.ofDim[Double](dim, dim)
    val atb  = new Array[Double](dim)
    var t = 0
    while (t < n) {
      val r = row(t)
      var i = 0
      while (i < dim) {
        atb(i) += r(i) * train(t)
        var j = i
        while (j < dim) { band(j - i)(i) += r(i) * r(j); j += 1 }
        i += 1
      }
      t += 1
    }
    var d = 0
    while (d < dim) { band(0)(d) += Ridge * n; d += 1 }
    val coefs = Banded.solve(band, atb)
    coefs(1) /= n // undo the trend scaling so predict() can use raw t
    Model(usable, harm, coefs)
  }

  /** Forecast `horizon` points following a train set of length `n0`. */
  def forecast(model: Model, n0: Int, horizon: Int): Array[Double] =
    Array.tabulate(horizon)(h => model.predict((n0 + h).toDouble))
}

/** Forecast error metrics. */
object Metrics {
  def rmse(pred: Array[Double], actual: Array[Double]): Double = {
    require(pred.length == actual.length)
    math.sqrt(pred.indices.map(i => math.pow(pred(i) - actual(i), 2)).sum / pred.length)
  }
  def mae(pred: Array[Double], actual: Array[Double]): Double = {
    require(pred.length == actual.length)
    pred.indices.map(i => math.abs(pred(i) - actual(i))).sum / pred.length
  }
}
