package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RobustStatsSpec extends AnyFunSuite {

  test("median of odd-length array") {
    assert(RobustStats.median(Array(3.0, 1.0, 2.0)) == 2.0)
  }

  test("median of even-length array averages middle pair") {
    assert(RobustStats.median(Array(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("median does not mutate input") {
    val x = Array(3.0, 1.0, 2.0)
    RobustStats.median(x)
    assert(x.toSeq == Seq(3.0, 1.0, 2.0))
  }

  test("MAD of known array") {
    // x = 1..7, median 4, |x−4| = 3,2,1,0,1,2,3 → MAD 2
    assert(RobustStats.mad(Array(1.0, 2, 3, 4, 5, 6, 7)) == 2.0)
  }

  test("MAD is outlier-insensitive where stddev is not") {
    val clean = Array.tabulate(100)(i => (i % 10).toDouble)
    val dirty = clean.clone(); dirty(0) = 1e6
    assert(math.abs(RobustStats.mad(clean) - RobustStats.mad(dirty)) < 1e-9)
    assert(math.sqrt(RobustStats.variance(dirty)) > 1000 * math.sqrt(RobustStats.variance(clean)))
  }

  test("biweight midvariance ≈ variance for Gaussian data") {
    val rnd = new Random(5)
    val x = Array.fill(5000)(rnd.nextGaussian() * 2.0)
    val bw = RobustStats.biweightMidvariance(x)
    assert(bw > 3.0 && bw < 5.0, s"biweight $bw should be near 4.0")
  }

  test("biweight midvariance resists 10% large outliers") {
    val rnd = new Random(6)
    val x = Array.fill(2000)(rnd.nextGaussian())
    val dirty = x.clone()
    (0 until 200).foreach(i => dirty(i * 10) += 50.0)
    val clean = RobustStats.biweightMidvariance(x)
    val contaminated = RobustStats.biweightMidvariance(dirty)
    assert(contaminated < 3 * clean, s"biweight blew up: $clean -> $contaminated")
    assert(RobustStats.variance(dirty) > 50 * RobustStats.variance(x))
  }

  test("biweight midvariance honors `from` (boundary exclusion)") {
    val x = Array.fill(100)(1000.0) ++ Array.tabulate(400)(i => math.sin(i * 0.3))
    val all  = RobustStats.biweightMidvariance(x, 0)
    val tail = RobustStats.biweightMidvariance(x, 100)
    assert(tail < 1.0)
    assert(all != tail)
  }

  test("biweight of constant data is 0") {
    assert(RobustStats.biweightMidvariance(Array.fill(50)(7.0)) == 0.0)
  }

  test("Huber loss: quadratic inside, linear outside") {
    assert(RobustStats.huberLoss(1.0, 2.0) == 0.5)
    assert(RobustStats.huberLoss(3.0, 2.0) == 2.0 * 3.0 - 2.0)
    assert(RobustStats.huberLoss(-3.0, 2.0) == RobustStats.huberLoss(3.0, 2.0))
  }

  test("Huber loss is continuous at ±ζ") {
    val z = 1.345
    assert(math.abs(RobustStats.huberLoss(z - 1e-9, z) - RobustStats.huberLoss(z + 1e-9, z)) < 1e-6)
  }

  test("robustStandardize: zero median and ~unit scale") {
    val rnd = new Random(8)
    val x = Array.fill(4000)(rnd.nextGaussian() * 5 + 13)
    val z = RobustStats.robustStandardize(x)
    assert(math.abs(RobustStats.median(z)) < 1e-9)
    val s = RobustStats.mad(z) * RobustStats.MadToSigma
    assert(s > 0.9 && s < 1.1, s"scale $s")
  }

  test("robustStandardize of constant series is all zeros") {
    assert(RobustStats.robustStandardize(Array.fill(10)(3.0)).forall(_ == 0.0))
  }

  test("robustStandardize falls back to σ when MAD = 0") {
    // Over half the points identical → MAD 0, but variance > 0.
    val x = Array.fill(60)(1.0) ++ Array.fill(40)(5.0)
    val z = RobustStats.robustStandardize(x)
    assert(z.exists(_ != 0.0) && z.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("property: median lies within [min, max] (100 random arrays)") {
    val rnd = new Random(77)
    (0 until 100).foreach { _ =>
      val arr = Array.fill(1 + rnd.nextInt(60))(rnd.nextDouble() * 2e6 - 1e6)
      val m = RobustStats.median(arr)
      assert(m >= arr.min - 1e-9 && m <= arr.max + 1e-9)
    }
  }

  test("property: MAD is non-negative and shift-invariant (100 random arrays)") {
    val rnd = new Random(78)
    (0 until 100).foreach { _ =>
      val arr = Array.fill(1 + rnd.nextInt(60))(rnd.nextDouble() * 2e3 - 1e3)
      val shift = rnd.nextDouble() * 200 - 100
      val m1 = RobustStats.mad(arr)
      val m2 = RobustStats.mad(arr.map(_ + shift))
      assert(m1 >= 0 && math.abs(m1 - m2) < 1e-7)
    }
  }
}
