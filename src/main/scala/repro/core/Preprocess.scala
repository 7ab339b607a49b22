package repro.core

import repro.numerics.DoubleArrays

/** Data preprocessing (Sec. 3.2): robust normalization, HP detrending, and
  * MAD-based clipping of extreme outliers,
  *
  *   y' = Ψ((ŷ − μ)/s),  Ψ(x) = sign(x)·min(|x|, c),
  *
  * with μ the median and s the (σ-consistent) MAD of the detrended series.
  */
object Preprocess {

  /** Full preprocessing chain: normalize → HP detrend → clip.
    * Output is a zero-centered, unit-ish scale, trend-free, clipped series
    * ready for MODWT.
    */
  def apply(y: Array[Double], lambda: Double, clipC: Double): Array[Double] = {
    val z  = RobustStats.robustStandardize(y)
    val d  = HPFilter.detrend(z, lambda)
    clip(d, clipC)
  }

  /** Ψ((x − μ)/s) applied elementwise, returned on the standardized scale. */
  def clip(x: Array[Double], c: Double): Array[Double] = {
    val (mu, m) = RobustStats.medianMad(x)
    val s  = m * RobustStats.MadToSigma
    if (s == 0.0) return DoubleArrays.map(x)(v => psi(v - mu, c))
    DoubleArrays.map(x)(v => psi((v - mu) / s, c))
  }

  private def psi(x: Double, c: Double): Double =
    math.signum(x) * math.min(math.abs(x), c)
}
