package repro.baselines

import repro.core.{HPFilter, RobustPeriod}
import repro.numerics.DoubleArrays

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

/** Mixin applying HP detrending (length-adaptive λ) and mean removal
  * before detection.
  */
abstract class Detrended(val name: String) extends Detector {
  final def detect(x: Array[Double]): Seq[Int] = {
    val d = HPFilter.detrend(x)
    val m = DoubleArrays.sum(d) / d.length
    detectDetrended(DoubleArrays.map(d)(_ - m))
  }
  protected def detectDetrended(x: Array[Double]): Seq[Int]
}

/** RobustPeriod, default `Config`, wrapped as a [[Detector]]. */
final class RobustPeriodDetector extends Detector {
  val name = "RobustPeriod"
  def detect(x: Array[Double]): Seq[Int] = RobustPeriod.detect(x).periods
}
