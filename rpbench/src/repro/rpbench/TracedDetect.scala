package repro.rpbench

import repro.core._
import repro.core.RobustPeriod.{Config, LevelResult, Result}
import repro.wavelet.{Daubechies, MODWT}

/** `RobustPeriod.detect` rebuilt from the program's public calls, with a
  * span around each call and counters for the work each stage did.
  *
  * The program has no tracing of its own yet, so this copy is how the
  * benchmark sees per-stage time. Every traced run checks, series by
  * series, that it returns the same `Result` as `RobustPeriod.detect`;
  * delete it once the detector records its own stage trace.
  */
object TracedDetect {

  /** One timed generation of the wavelet filter pair, the work
    * `MODWT.transform` repeats on every call.
    */
  def filterPair(series: Long, order: Int): Unit =
    Trace.span("filter", series) { Daubechies.scaling(order); Daubechies.wavelet(order) }

  def detect(series: Long, y: Array[Double], cfg: Config = Config()): Result =
    Trace.span("detect", series) {
      val n = y.length
      require(n >= 16, "series too short")
      val pre = Trace.span("preprocess", series)(Preprocess(y, cfg.hpLambda, cfg.clipC))
      val j   = MODWT.defaultLevels(n, cfg.waveletOrder, cfg.maxLevels)
      val dec = Trace.span("modwt", series)(MODWT.transform(pre, j, cfg.waveletOrder))
      val l1  = 2 * cfg.waveletOrder

      val variances = (1 to j).map { lvl =>
        Trace.span("variance", series, lvl) {
          val from = math.min(MODWT.filterWidth(l1, lvl) - 1, 3 * n / 4)
          if (cfg.useRobustVariance) RobustStats.biweightMidvariance(dec.w(lvl - 1), from)
          else RobustStats.variance(dec.w(lvl - 1).drop(from))
        }
      }
      val totalVar = variances.sum
      Trace.count("detect.levels", j)

      val order = (1 to j).sortBy(lvl => -variances(lvl - 1))
      val levelResults = scala.collection.mutable.ArrayBuffer.empty[LevelResult]
      val found        = scala.collection.mutable.ArrayBuffer.empty[(Int, Double)]

      for (lvl <- order) {
        val v = variances(lvl - 1)
        if (totalVar > 0 && v < cfg.minVarianceFraction * totalVar) {
          Trace.count("detect.levels_skipped", 1)
          levelResults += LevelResult(lvl, v, 1.0, 0.0, 0)
        } else {
          val w  = Trace.span("variance", series, lvl)(RobustStats.robustStandardize(dec.w(lvl - 1)))
          val x  = new Array[Double](2 * n)
          System.arraycopy(w, 0, x, 0, n)
          val nP = 2 * n
          val band = (nP / (1 << (lvl + 1)), nP / (1 << lvl))
          // Exact-band ordinates solved by `spliced`, clipped as it clips them.
          val ordinates =
            if (cfg.useHuberPeriodogram) math.max(0, math.min(n, band._2) - math.max(1, band._1) + 1)
            else 0
          val pHalf =
            if (cfg.useHuberPeriodogram)
              Trace.span("huber", series, lvl)(
                HuberPeriodogram.spliced(x, band, cfg.huberZeta, cfg.admmIter))
            else
              Trace.span("vanilla", series, lvl)(HuberPeriodogram.vanilla(x).take(n + 1))
          Trace.count("huber.ordinates", ordinates)
          val even   = Array.tabulate(n / 2 + 1)(i => pHalf(2 * i))
          val bandLo = math.max(1, (band._1 + 1) / 2)
          val bandHi = math.min(n / 2, band._2 / 2)
          val minOrd = 16
          var lo = bandLo
          var hi = bandHi
          if (hi - lo + 1 < minOrd) {
            lo = math.max(1, hi - minOrd + 1)
            if (hi - lo + 1 < minOrd) hi = math.min(n / 2, lo + minOrd - 1)
          }
          val fisher = Trace.span("fisher", series, lvl)(FisherTest.test(even, kFrom = lo, kTo = hi))
          Trace.count("fisher.tested", 1)
          var kMax = 1
          var best = -1.0
          var kk   = 1
          while (kk < pHalf.length) {
            if (pHalf(kk) > best) { best = pHalf(kk); kMax = kk }
            kk += 1
          }
          if (fisher.pValue >= cfg.fisherAlpha) {
            Trace.count("huber.wasted_ordinates", ordinates)
            levelResults += LevelResult(lvl, v, fisher.pValue, 0.0, 0)
          } else {
            Trace.count("fisher.significant", 1)
            val candPeriod = nP.toDouble / kMax
            val fin = Trace.span("acf", series, lvl) {
              val acf = HuberACF.fromPeriodogram(pHalf)
              HuberACF.validate(acf, kMax, nP, cfg.acfMinHeight)
            }
            if (fin.isDefined) Trace.count("acf.accepted", 1)
            else Trace.count("huber.wasted_ordinates", ordinates)
            fin.foreach(p => found += ((p, v)))
            levelResults += LevelResult(lvl, v, fisher.pValue, candPeriod, fin.getOrElse(0))
          }
        }
      }

      val periods = scala.collection.mutable.ArrayBuffer.empty[Int]
      found.sortBy(-_._2).foreach { case (p, _) =>
        val dup = periods.exists(q => math.abs(q - p) <= math.max(1.0, 0.05 * math.min(q, p)))
        if (!dup) periods += p
      }
      Result(periods.toSeq, levelResults.sortBy(_.level).toSeq)
    }
}
