package repro.baselines

import repro.core._

/** Ablation revisions of RobustPeriod (Sec. 4.3.1). */
object Ablations {

  /** RobustPeriod's settings: the preprocessing, ζ and α of both Huber ablations. */
  private val rp = RobustPeriod.Config()

  /** Half-range Huber periodogram (RobustPeriod's ζ) of the preprocessed,
    * median/MAD-standardized series zero-padded to 2N — the input both
    * Huber ablations test.
    */
  private def huberPeriodogram(y: Array[Double]): Array[Double] = {
    val n   = y.length
    val pre = RobustStats.robustStandardize(Preprocess(y, rp.hpLambda, rp.clipC))
    val x   = new Array[Double](2 * n)
    System.arraycopy(pre, 0, x, 0, n)
    HuberPeriodogram.huberFull(x, rp.huberZeta, rp.admmIter)
  }

  /** Huber-Fisher: Fisher's test with the Huber-periodogram on the whole
    * (preprocessed, zero-padded) series — no MODWT decoupling, so at most
    * the single dominant period is found.
    */
  object HuberFisher extends Detector {
    val name = "Huber-Fisher"
    def detect(y: Array[Double]): Seq[Int] = {
      val n      = y.length
      val pHalf  = huberPeriodogram(y)
      val fisher = FisherTest.test(pHalf)
      if (fisher.pValue < rp.fisherAlpha && fisher.kMax >= 1) {
        val per = math.round(2.0 * n / fisher.kMax).toInt
        if (per >= 2 && per <= n / 2) Seq(per) else Seq.empty
      } else Seq.empty
    }
  }

  /** Huber-Siegel-ACF: Siegel's multi-period candidates on the
    * Huber-periodogram, each validated by the AUTOPERIOD ACF hill check.
    */
  object HuberSiegelACF extends Detector {
    val name = "Huber-Siegel-ACF"
    def detect(y: Array[Double]): Seq[Int] = {
      val n     = y.length
      val pHalf = huberPeriodogram(y)
      val cands = SiegelDetector.detectFromPeriodogram(pHalf, 2 * n)
      val acf   = HuberACF.fromPeriodogram(pHalf)
      AutoPeriod.distinctPeriods(
        cands.flatMap(c => AutoPeriod.hillValidate(acf, c.toDouble, 2 * n)).filter(_ <= n / 2))
    }
  }

  /** NR-RobustPeriod: identical pipeline with the robustness switched off —
    * sample variance for level ranking, vanilla periodogram, vanilla
    * (Wiener–Khinchin) ACF.
    */
  object NRRobustPeriod extends Detector {
    val name = "NR-RobustPeriod"
    private val cfg = RobustPeriod.Config(useHuberPeriodogram = false, useRobustVariance = false)
    def detect(y: Array[Double]): Seq[Int] = RobustPeriod.detect(y, cfg).periods
  }
}
