package repro.baselines

import repro.core._

/** Ablation revisions of RobustPeriod (Sec. 4.3.1). */
object Ablations {

  /** Huber-Fisher: Fisher's test with the Huber-periodogram on the whole
    * (preprocessed, zero-padded) series — no MODWT decoupling, so at most
    * the single dominant period is found.
    */
  object HuberFisher extends Detector {
    val name = "Huber-Fisher"
    def detect(y: Array[Double]): Seq[Int] = {
      val n   = y.length
      val pre = RobustStats.robustStandardize(Preprocess(y))
      val x   = new Array[Double](2 * n)
      System.arraycopy(pre, 0, x, 0, n)
      val pHalf  = HuberPeriodogram.huberFull(x, zeta = 1.345)
      val fisher = FisherTest.test(pHalf)
      if (fisher.pValue < 1e-3 && fisher.kMax >= 1) {
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
    private val siegel = new SiegelDetector()
    def detect(y: Array[Double]): Seq[Int] = {
      val n   = y.length
      val pre = RobustStats.robustStandardize(Preprocess(y))
      val x   = new Array[Double](2 * n)
      System.arraycopy(pre, 0, x, 0, n)
      val pHalf = HuberPeriodogram.huberFull(x, zeta = 1.345)
      val cands = siegel.detectFromPeriodogram(pHalf, 2 * n)
      val acf   = HuberACF.fromPeriodogram(pHalf)
      val out   = scala.collection.mutable.ArrayBuffer.empty[Int]
      cands.foreach { c =>
        AutoPeriod.hillValidate(acf, c.toDouble, 2 * n).foreach { refined =>
          if (refined <= n / 2 &&
              !out.exists(o => math.abs(o - refined) <= math.max(1, 0.05 * refined)))
            out += refined
        }
      }
      out.toSeq
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
