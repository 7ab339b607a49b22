package repro.wavelet

/** Daubechies orthonormal wavelet filters, extremal phase (Daubechies 1992;
  * Percival & Walden 2000, ch. 4), pinned as coefficient tables.
  *
  * The program runs two orders: 10 (`RobustPeriod.detect`, paper Sec. 3.3)
  * and 4 (Wavelet-Fisher); orders 1–3 are kept as small test fixtures. The
  * db10 taps are the spectral factorization of the Daubechies half-band
  * polynomial, printed with `java.lang.Double.toString`, so they are exact
  * to the last bit of that construction.
  *
  * Convention: `scaling(p)` is the low-pass filter g of length 2p with
  * Σg = √2; `wavelet(p)` is the high-pass quadrature mirror
  * h_l = (−1)^l g_{L−1−l}.
  */
object Daubechies {

  private val tables: Map[Int, Array[Double]] = Map(
    1 -> Array(0.7071067811865476, 0.7071067811865476),
    2 -> Array(0.48296291314469025, 0.836516303737469, 0.22414386804185735,
               -0.12940952255092145),
    3 -> Array(0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
               -0.13501102001039084, -0.08544127388224149, 0.035226291882100656),
    4 -> Array(0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
               -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
               0.032883011666982945, -0.010597401784997278),
    10 -> Array(0.02667005790059567, 0.188176800077932, 0.5272011889322142,
                0.6884590394537728, 0.28117234365984456, -0.2498464243281706,
                -0.19594627437719203, 0.12736934033644695, 0.09305736460356487,
                -0.07139414716669498, -0.029457536821826804, 0.03321267405946141,
                0.003606553566915959, -0.010733175483361944, 0.0013953517470714572,
                0.001992405295189007, -6.858566949642965E-4, -1.1646685512901926E-4,
                9.358867032055668E-5, -1.3264202894628999E-5),
  )

  /** Scaling (low-pass) filter for Daubechies order p (2p taps); a fresh
    * copy, so callers may modify it.
    */
  def scaling(p: Int): Array[Double] =
    tables.getOrElse(p, throw new IllegalArgumentException(
      s"unsupported Daubechies order $p; supported: ${tables.keys.toSeq.sorted.mkString(", ")}")).clone()

  /** Wavelet (high-pass) filter: h_l = (−1)^l g_{L−1−l}. */
  def wavelet(p: Int): Array[Double] = {
    val g = scaling(p)
    val L = g.length
    Array.tabulate(L)(l => (if (l % 2 == 0) 1.0 else -1.0) * g(L - 1 - l))
  }
}
