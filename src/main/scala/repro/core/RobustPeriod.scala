package repro.core

import repro.numerics.DoubleArrays
import repro.wavelet.MODWT

/** The RobustPeriod multiple-periodicity detector (Sec. 3, Fig. 1):
  * preprocess → MODWT decoupling → robust wavelet-variance ranking →
  * per-level Huber-periodogram Fisher test → Huber-ACF-Med validation →
  * deduplicated union of per-level periods.
  */
object RobustPeriod {

  /** The two ablation toggles (NR-RobustPeriod sets both to false): Huber
    * M-periodogram vs vanilla FFT periodogram, and biweight midvariance vs
    * plain sample variance for level ranking. Every other setting is fixed
    * by the paper or DESIGN.md §5 and defined once here.
    */
  final case class Config(useHuberPeriodogram: Boolean = true, useRobustVariance: Boolean = true) {
    /** Daubechies order of the MODWT filters: db10 (Sec. 3.3). */
    val waveletOrder: Int = 10
    /** Cap on the MODWT level count J (DESIGN.md §5). */
    val maxLevels: Int = 10
    /** HP-filter λ of the preprocessing (Eq. 2); −1 is the length-adaptive λ of DESIGN.md §5. */
    val hpLambda: Double = -1
    /** Clip constant c of Ψ in the preprocessing (Sec. 3.2). */
    val clipC: Double = 3.0
    /** Huber threshold ζ of the M-periodogram loss (Eq. 7). */
    val huberZeta: Double = 1.345
    /** Significance level α of each level's Fisher test (DESIGN.md §5). */
    val fisherAlpha: Double = 1e-3
    /** Biased-scale height floor of the ACF peaks Huber-ACF-Med counts (DESIGN.md §5). */
    val acfMinHeight: Double = 0.15
    /** Solver iterates per exact Huber ordinate (DESIGN.md §5); the name predates Newton/IRLS. */
    val admmIter: Int = 50
    /** Levels below this fraction of the total wavelet variance are skipped (DESIGN.md §5). */
    val minVarianceFraction: Double = 0.01
  }

  /** Per-level diagnostics (mirrors the columns of the paper's Fig. 5). */
  final case class LevelResult(
      level: Int,
      variance: Double,
      fisherP: Double,
      periodogramPeriod: Double, // N'/kmax, 0 if not significant
      acfPeriod: Int,            // validated final period, 0 if rejected
  )

  /** `periods` are ranked by the wavelet variance of the level that found them. */
  final case class Result(periods: Seq[Int], levels: Seq[LevelResult])

  /** Detects the periods of `y`.
    *
    * Input contract: `y` holds at least 16 values, all finite. A shorter
    * series, or a NaN or ±Inf value, is rejected with an
    * `IllegalArgumentException` (which names the first non-finite index);
    * missing points must be filled before detection. A constant series
    * yields no periods.
    */
  def detect(y: Array[Double], cfg: Config = Config()): Result = {
    val n = y.length
    require(n >= 16, "series too short")
    var bad = 0
    while (bad < n && java.lang.Double.isFinite(y(bad))) bad += 1
    require(bad == n, s"non-finite value ${y(bad)} at index $bad")
    val pre = Preprocess(y, cfg.hpLambda, cfg.clipC)
    val j   = MODWT.defaultLevels(n, cfg.waveletOrder, cfg.maxLevels)
    val dec = MODWT.transform(pre, j, cfg.waveletOrder)
    val l1  = 2 * cfg.waveletOrder

    // Robust unbiased wavelet variance per level; boundary coefficients
    // excluded up to 3N/4 (deep levels have L_j − 1 ≥ N, see DESIGN.md §5).
    val variances = (1 to j).map { lvl =>
      val from = math.min(MODWT.filterWidth(l1, lvl) - 1, 3 * n / 4)
      if (cfg.useRobustVariance) RobustStats.biweightMidvariance(dec.w(lvl - 1), from)
      else RobustStats.variance(dec.w(lvl - 1), from)
    }
    val totalVar = variances.sum

    // Process levels in decreasing variance order (output most significant
    // periods first), skipping negligible-energy levels.
    val order = (1 to j).sortBy(lvl => -variances(lvl - 1))
    val levelResults = scala.collection.mutable.ArrayBuffer.empty[LevelResult]
    val found        = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)] // (period, levelVar)

    for (lvl <- order) {
      val v = variances(lvl - 1)
      if (totalVar > 0 && v < cfg.minVarianceFraction * totalVar) {
        levelResults += LevelResult(lvl, v, 1.0, 0.0, 0)
      } else {
        val w  = RobustStats.robustStandardize(dec.w(lvl - 1))
        val x  = new Array[Double](2 * n) // zero-pad to N' = 2N
        System.arraycopy(w, 0, x, 0, n)
        val nP = 2 * n
        val band = (nP / (1 << (lvl + 1)), nP / (1 << lvl))
        // Only the even ordinates are solved before the Fisher test; the
        // odd ones feed only kMax and the Huber-ACF of a significant level.
        val huber = Option.when(cfg.useHuberPeriodogram)(
          new HuberPeriodogram.Spliced(x, band, cfg.huberZeta, cfg.admmIter))
        val pHalf = huber.fold(HuberPeriodogram.vanilla(x))(_.solveEven())
        // Fisher window: the level's in-band even ordinates, widened to at
        // least 16. Even ordinates only, because X_padded(2k) equals the
        // unpadded DFT, so they are i.i.d. under the white-noise null (odd,
        // interpolated ordinates are correlated with their neighbours).
        // In-band, because the band-passed level's near-zero out-of-band
        // ordinates would inflate the g-statistic far above the null. At
        // least 16, because deep levels hold too few in-band ordinates for
        // any test power (4 at T≈1440, N=7200); the widening reaches into
        // the adjacent stopband, attenuated for signal and noise alike, so
        // the null is only mildly distorted. The period candidate always
        // uses the full-resolution, full-range argmax.
        val even   = DoubleArrays.tabulate(n / 2 + 1)(i => pHalf(2 * i))
        val bandLo = math.max(1, (band._1 + 1) / 2)
        val bandHi = math.min(n / 2, band._2 / 2)
        val minOrd = 16
        var lo = bandLo
        var hi = bandHi
        if (hi - lo + 1 < minOrd) {
          lo = math.max(1, hi - minOrd + 1)
          if (hi - lo + 1 < minOrd) hi = math.min(n / 2, lo + minOrd - 1)
        }
        val fisher = FisherTest.test(even, kFrom = lo, kTo = hi)
        if (fisher.pValue >= cfg.fisherAlpha) {
          levelResults += LevelResult(lvl, v, fisher.pValue, 0.0, 0)
        } else {
          huber.foreach(_.solveOdd())
          var kMax = 1
          var best = -1.0
          var kk   = 1
          while (kk < pHalf.length) {
            if (pHalf(kk) > best) { best = pHalf(kk); kMax = kk }
            kk += 1
          }
          val candPeriod = nP.toDouble / kMax
          val acf = HuberACF.fromPeriodogram(pHalf)
          val fin = HuberACF.validate(acf, kMax, nP, cfg.acfMinHeight)
          fin.foreach(p => found += ((p, v)))
          levelResults += LevelResult(lvl, v, fisher.pValue, candPeriod, fin.getOrElse(0))
        }
      }
    }

    // Keep the detection from the highest-variance level; preserve variance order.
    Result(dedupe(found.sortBy(-_._2).map(_._1).toSeq), levelResults.sortBy(_.level).toSeq)
  }

  /** `ranked` without near-duplicates: a period is dropped when an earlier
    * kept one q has |p − q| ≤ max(1, 5% of min(p, q)).
    */
  def dedupe(ranked: Seq[Int]): Seq[Int] = {
    val kept = scala.collection.mutable.ArrayBuffer.empty[Int]
    ranked.foreach { p =>
      if (!kept.exists(q => math.abs(q - p) <= math.max(1.0, 0.05 * math.min(q, p)))) kept += p
    }
    kept.toSeq
  }
}
