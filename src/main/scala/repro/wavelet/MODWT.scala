package repro.wavelet

import repro.numerics.DoubleArrays

/** Maximal Overlap Discrete Wavelet Transform (Percival & Walden ch. 5).
  *
  * Pyramid algorithm with circular boundary (Eq. 3): level-j coefficients
  * are produced from the level-(j−1) scaling coefficients with the unit
  * filters upsampled by 2^{j−1}; the MODWT unit filters are the orthonormal
  * DWT filters divided by √2. Level j's wavelet coefficients isolate the
  * nominal octave band 1/2^{j+1} ≤ |f| ≤ 1/2^j, i.e. periods in
  * [2^j, 2^{j+1}] — the property RobustPeriod uses to decouple periods.
  */
object MODWT {

  /** Result of a J-level MODWT: `w(j-1)` are level-j wavelet coefficients,
    * `v` the level-J scaling coefficients; all length N.
    */
  final case class Decomposition(w: Array[Array[Double]], v: Array[Double]) {
    def levels: Int = w.length
  }

  /** Width of the level-j equivalent filter: L_j = (2^j − 1)(L1 − 1) + 1. */
  def filterWidth(l1: Int, j: Int): Int = ((1 << j) - 1) * (l1 - 1) + 1

  /** J-level MODWT of `x` with Daubechies order `p` filters. */
  def transform(x: Array[Double], levels: Int, p: Int): Decomposition = {
    val n = x.length
    require(n >= 2, "series too short for MODWT")
    val g = DoubleArrays.map(Daubechies.scaling(p))(_ / math.sqrt(2.0))
    val h = DoubleArrays.map(Daubechies.wavelet(p))(_ / math.sqrt(2.0))
    val l1 = g.length
    val w  = Array.ofDim[Array[Double]](levels)
    var v  = x.clone()
    var j  = 1
    while (j <= levels) {
      val stride = 1 << (j - 1)
      val wj = new Array[Double](n)
      val vj = new Array[Double](n)
      var t  = 0
      while (t < n) {
        var sw = 0.0
        var sv = 0.0
        var l  = 0
        while (l < l1) {
          val idx = Math.floorMod(t - stride * l, n)
          sw += h(l) * v(idx)
          sv += g(l) * v(idx)
          l += 1
        }
        wj(t) = sw; vj(t) = sv
        t += 1
      }
      w(j - 1) = wj
      v = vj
      j += 1
    }
    Decomposition(w, v)
  }

  /** Default level count used by RobustPeriod: enough octaves to cover
    * periods up to ~N/4 while keeping at least a few non-boundary
    * coefficients per level, at most `maxLevels`. The count does not
    * depend on the filter order `p`.
    */
  def defaultLevels(n: Int, p: Int, maxLevels: Int): Int = {
    val byLength = (math.log(n.toDouble) / math.log(2.0)).toInt - 2
    math.max(1, math.min(byLength, maxLevels))
  }
}
