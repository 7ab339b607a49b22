package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RobustStatsSpec extends AnyFunSuite {

  private def mad(x: Array[Double]): Double = RobustStats.medianMad(x)._2

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
    assert(mad(Array(1.0, 2, 3, 4, 5, 6, 7)) == 2.0)
  }

  test("MAD is outlier-insensitive where stddev is not") {
    val clean = Array.tabulate(100)(i => (i % 10).toDouble)
    val dirty = clean.clone(); dirty(0) = 1e6
    assert(math.abs(mad(clean) - mad(dirty)) < 1e-9)
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
    assert(HuberAdmm.huberLoss(1.0, 2.0) == 0.5)
    assert(HuberAdmm.huberLoss(3.0, 2.0) == 2.0 * 3.0 - 2.0)
    assert(HuberAdmm.huberLoss(-3.0, 2.0) == HuberAdmm.huberLoss(3.0, 2.0))
  }

  test("Huber loss is continuous at ±ζ") {
    val z = 1.345
    assert(math.abs(HuberAdmm.huberLoss(z - 1e-9, z) - HuberAdmm.huberLoss(z + 1e-9, z)) < 1e-6)
  }

  test("robustStandardize: zero median and ~unit scale") {
    val rnd = new Random(8)
    val x = Array.fill(4000)(rnd.nextGaussian() * 5 + 13)
    val z = RobustStats.robustStandardize(x)
    assert(math.abs(RobustStats.median(z)) < 1e-9)
    val s = mad(z) * RobustStats.MadToSigma
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
      val m1 = mad(arr)
      val m2 = mad(arr.map(_ + shift))
      assert(m1 >= 0 && math.abs(m1 - m2) < 1e-7)
    }
  }

  // Sort-based oracles: the definitions `median` and `mad` must reproduce
  // bit for bit, the sign of a zero included.
  private def sortedMedian(x: Array[Double]): Double = {
    val s = x.clone()
    java.util.Arrays.sort(s)
    val n = s.length
    if (n % 2 == 1) s(n / 2) else 0.5 * (s(n / 2 - 1) + s(n / 2))
  }
  private def sortedMad(x: Array[Double]): Double = {
    val m = sortedMedian(x)
    sortedMedian(x.map(v => math.abs(v - m)))
  }
  private def rawBits(x: Array[Double]): Seq[Long] = x.toSeq.map(java.lang.Double.doubleToRawLongBits)
  private def rawBits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** Arrays of 1–2000 values: Gaussian, heavy ties, ±0.0 mixes, sorted,
    * reverse-sorted, all-equal and organ-pipe.
    */
  private val arrays: Gen[(String, Array[Double])] = for {
    n    <- Gen.choose(1, 2000)
    kind <- Gen.oneOf("gaussian", "ties", "signed zeros", "zeros only", "sorted", "reversed",
                      "all equal", "organ pipe")
    seed <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val rnd = new Random(seed)
    def sortedGaussian = { val a = Array.fill(n)(rnd.nextGaussian()); java.util.Arrays.sort(a); a }
    kind -> (kind match {
      case "gaussian"     => Array.fill(n)(rnd.nextGaussian())
      case "ties"         => Array.fill(n)(rnd.nextInt(5) - 2.0)
      case "signed zeros" => Array.fill(n)(Array(-0.0, 0.0, -1.0, 1.0, 0.5)(rnd.nextInt(5)))
      case "zeros only"   => Array.fill(n)(if (rnd.nextBoolean()) -0.0 else 0.0)
      case "sorted"       => sortedGaussian
      case "reversed"     => sortedGaussian.reverse
      case "all equal"    => Array.fill(n)(3.25)
      case "organ pipe"   => Array.tabulate(n)(i => math.min(i, n - 1 - i).toDouble)
    })
  }

  test("property: median and MAD by selection equal the sorted definitions bit for bit") {
    val prop = Prop.forAllNoShrink(arrays) { case (kind, x) =>
      val before   = rawBits(x)
      val from     = x.length / 3
      val (tailMed, tailMad) = RobustStats.medianMad(x, from)
      val tail     = x.drop(from)
      (rawBits(RobustStats.median(x)) == rawBits(sortedMedian(x)) &&
        rawBits(mad(x)) == rawBits(sortedMad(x)) &&
        rawBits(tailMed) == rawBits(sortedMedian(tail)) &&
        rawBits(tailMad) == rawBits(sortedMad(tail)) &&
        rawBits(x) == before) :| s"$kind, n=${x.length}"
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(400).withWorkers(1)
      .withInitialSeed(Seed(20261019L))
    val res = Check.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  test("property: variance of a tail equals the collection-based definition bit for bit") {
    def collectionVariance(x: Array[Double]): Double = {
      val m = x.sum / x.length
      x.map(v => (v - m) * (v - m)).sum / x.length
    }
    val prop = Prop.forAllNoShrink(arrays) { case (kind, x) =>
      val from = x.length / 4
      (rawBits(RobustStats.variance(x)) == rawBits(collectionVariance(x)) &&
        rawBits(RobustStats.variance(x, from)) == rawBits(collectionVariance(x.drop(from)))) :|
        s"$kind, n=${x.length}"
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(200).withWorkers(1)
      .withInitialSeed(Seed(20261019L))
    val res = Check.check(params, prop)
    assert(res.passed, res.status.toString)
  }

  test("median and MAD of every permutation of small arrays with ties and signed zeros") {
    for (n <- 1 to 8; vals <- Seq(Array.tabulate(n)(i => (i / 2).toDouble),
                                  Array.tabulate(n)(i => Array(-0.0, 0.0, i.toDouble)(i % 3)))) {
      vals.toSeq.permutations.foreach { p =>
        val x = p.toArray
        assert(rawBits(RobustStats.median(x)) == rawBits(sortedMedian(x)), x.mkString(","))
        assert(rawBits(mad(x)) == rawBits(sortedMad(x)), x.mkString(","))
      }
    }
  }

  // Built by McIlroy's quicksort adversary (1999) run against this
  // quickselect: selecting its median takes 18 partition rounds, past the
  // budget of 2⌈log₂ 64⌉ = 12, so the sort fallback finishes it.
  private val Median3Killer = Array(
    0, 34, 2, 32, 4, 35, 6, 36, 8, 37, 10, 38, 12, 39, 14, 40, 16, 41, 18, 42, 20, 43, 22, 44,
    24, 45, 26, 46, 28, 47, 30, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 48,
    49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 1).map(_.toDouble)

  test("an input past the selection's round budget gives the sorted result") {
    val x = Median3Killer
    assert(RobustStats.median(x) == 31.5 && rawBits(RobustStats.median(x)) == rawBits(sortedMedian(x)))
    assert(rawBits(mad(x)) == rawBits(sortedMad(x)))
  }

  test("an input holding NaN gives the sorted result") {
    val x = Array(3.0, Double.NaN, -1.0, 0.0, 7.0, 2.0)
    assert(rawBits(RobustStats.median(x)) == rawBits(sortedMedian(x)))
    assert(rawBits(RobustStats.median(x.take(5))) == rawBits(sortedMedian(x.take(5))))
    assert(rawBits(mad(x)) == rawBits(sortedMad(x)))
  }
}
