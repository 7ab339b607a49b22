package repro.baselines

import repro.core.{HPFilter, RobustPeriod}

/** Common interface for every periodicity detector under evaluation.
  *
  * `detect` returns the detected periods ranked most-significant first
  * (single-period detectors return 0 or 1 entries). Per the paper's
  * evaluation protocol, the HP filter is applied to the input of *every*
  * algorithm for fairness; baselines do that through [[Detrended]],
  * RobustPeriod through its own preprocessing.
  */
trait Detector extends Serializable {
  def name: String
  def detect(x: Array[Double]): Seq[Int]
}

/** Mixin applying HP detrending (and mean removal) before detection;
  * λ ≤ 0 selects the length-adaptive value.
  */
abstract class Detrended(val name: String, lambda: Double = -1) extends Detector {
  final def detect(x: Array[Double]): Seq[Int] = {
    val d = HPFilter.detrend(x, lambda)
    val m = d.sum / d.length
    detectDetrended(d.map(_ - m))
  }
  protected def detectDetrended(x: Array[Double]): Seq[Int]
}

/** RobustPeriod wrapped as a [[Detector]]. */
final class RobustPeriodDetector(cfg: RobustPeriod.Config = RobustPeriod.Config())
    extends Detector {
  val name = "RobustPeriod"
  def detect(x: Array[Double]): Seq[Int] = RobustPeriod.detect(x, cfg).periods
}
