package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class HuberACFSpec extends AnyFunSuite {

  private val minHeight = RobustPeriod.Config().acfMinHeight

  /** O(N²) unbiased normalized ACF oracle. */
  private def directUnbiased(x: Array[Double]): Array[Double] = {
    val n = x.length
    val denom = x.map(v => v * v).sum / n
    Array.tabulate(n) { t =>
      var s = 0.0
      var i = 0
      while (i < n - t) { s += x(i) * x(i + t); i += 1 }
      (s / (n - t)) / denom
    }
  }

  for (n <- Seq(50, 128, 333, 1000)) {
    test(s"Wiener–Khinchin ACF equals direct unbiased ACF (n=$n)") {
      val rnd = new Random(n)
      val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 25.0) + 0.3 * rnd.nextGaussian())
      val viaFft = ACF.unbiased(x)
      val direct = directUnbiased(x)
      (0 until n).foreach { t =>
        assert(math.abs(viaFft(t) - direct(t)) < 1e-7,
          s"lag $t: ${viaFft(t)} vs ${direct(t)}")
      }
    }
  }

  test("ACF(0) = 1 always") {
    val rnd = new Random(2)
    val x = Array.fill(200)(rnd.nextGaussian())
    assert(math.abs(ACF.unbiased(x)(0) - 1.0) < 1e-9)
    assert(math.abs(ACF.biased(x)(0) - 1.0) < 1e-9)
  }

  test("ACF of a sine peaks at its period") {
    val x = Array.tabulate(600)(t => math.sin(2 * math.Pi * t / 60.0))
    val a = ACF.unbiased(x)
    val peak = (30 to 90).maxBy(a(_))
    assert(peak == 60, s"peak at $peak")
    assert(a(60) > 0.95)
  }

  test("biased ACF shrinks toward zero at long lags vs unbiased") {
    val rnd = new Random(4)
    val x = Array.tabulate(300)(t => math.sin(2 * math.Pi * t / 30.0) + 0.1 * rnd.nextGaussian())
    val u = ACF.unbiased(x); val b = ACF.biased(x)
    assert(math.abs(b(270)) < math.abs(u(270)) + 1e-12)
    assert(math.abs(b(270) - u(270) * 30.0 / 300.0) < 1e-9)
  }

  test("fromPeriodogram on a vanilla padded periodogram = unbiased ACF") {
    val rnd = new Random(5)
    val n = 250
    val x = Array.fill(n)(rnd.nextGaussian())
    val padded = new Array[Double](2 * n)
    System.arraycopy(x, 0, padded, 0, n)
    val pHalf = HuberPeriodogram.vanilla(padded).take(n + 1)
    val got = HuberACF.fromPeriodogram(pHalf)
    val exp = directUnbiased(x)
    (0 until n).foreach(t => assert(math.abs(got(t) - exp(t)) < 1e-7))
  }

  test("validate accepts the true period when the candidate bin is right") {
    val n = 500
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 50.0))
    val acf = ACF.unbiased(x)
    val k = 2 * n / 50 // padded-index candidate for period 50 (N' = 2N)
    assert(HuberACF.validate(acf, k, 2 * n, minHeight).contains(50))
  }

  test("validate rejects a candidate whose ACF spacing disagrees") {
    val n = 500
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 50.0))
    val acf = ACF.unbiased(x)
    val k = 2 * n / 31 // claims period ≈31; ACF spacing is 50 → outside R_k
    assert(HuberACF.validate(acf, k, 2 * n, minHeight).isEmpty)
  }

  test("validate rejects white noise for any plausible candidate") {
    val rnd = new Random(7)
    var accepts = 0
    (0 until 20).foreach { _ =>
      val x = Array.fill(400)(rnd.nextGaussian())
      val acf = ACF.unbiased(x)
      Seq(10, 20, 40, 80).foreach { per =>
        if (HuberACF.validate(acf, 2 * 400 / per, 800, minHeight).isDefined) accepts += 1
      }
    }
    assert(accepts <= 4, s"$accepts/80 spurious validations")
  }

  test("validate handles degenerate inputs") {
    assert(HuberACF.validate(Array.fill(100)(0.0), 10, 200, minHeight).isEmpty)
    assert(HuberACF.validate(Array.fill(100)(1.0), 1, 200, minHeight).isEmpty) // k < 2
  }
}

class PeakDetectionSpec extends AnyFunSuite {

  test("clean sinusoid: peaks at multiples of the period") {
    val x = Array.tabulate(400)(t => math.cos(2 * math.Pi * t / 40.0))
    val idx = PeakDetection.peaks(x, k = 10, h = 0.5)
    assert(idx.nonEmpty)
    idx.foreach(i => assert(Math.floorMod(i, 40) <= 2 || Math.floorMod(i, 40) >= 38,
      s"peak at $i not near a multiple of 40"))
  }

  test("spacing between detected peaks equals the period") {
    val x = Array.tabulate(600)(t => math.cos(2 * math.Pi * t / 60.0))
    val idx = PeakDetection.peaks(x, k = 15, h = 0.5)
    idx.sliding(2).foreach(w => assert(math.abs(w(1) - w(0) - 60) <= 2))
  }

  test("constant signal has no peaks") {
    assert(PeakDetection.peaks(Array.fill(100)(3.0), 3, 1.0).isEmpty)
  }

  test("single spike is the only peak") {
    val x = Array.fill(100)(0.0); x(40) = 5.0
    val idx = PeakDetection.peaks(x, 3, 1.0)
    assert(idx.toSeq == Seq(40))
  }

  test("peaks within window k are pruned to the tallest") {
    val x = Array.fill(100)(0.0)
    x(50) = 5.0; x(52) = 7.0 // two spikes 2 apart, window 3
    val idx = PeakDetection.peaks(x, 3, 0.5)
    assert(idx.toSeq == Seq(52))
  }

  test("range restriction respected") {
    val x = Array.fill(100)(0.0); x(10) = 5.0; x(80) = 5.0
    val idx = PeakDetection.peaks(x, 3, 0.5, from = 20, until = 90)
    assert(idx.toSeq == Seq(80))
  }

  test("short input returns empty") {
    assert(PeakDetection.peaks(Array(1.0, 2.0), 3, 1.0).isEmpty)
  }

  /** The spike-score filter and pruning written with Scala collections:
    * the definition `peaks` must reproduce.
    */
  private def collectionPeaks(x: Array[Double], k: Int, h: Double, from: Int, until: Int): Array[Int] = {
    val n  = x.length
    val hi = if (until < 0) n else math.min(until, n)
    if (hi - from < 3) return Array.empty
    val score = Array.tabulate(n) { i =>
      if (i < from || i >= hi) 0.0
      else {
        val ls = (1 to k).filter(i - _ >= 0).map(j => x(i) - x(i - j))
        val rs = (1 to k).filter(i + _ < n).map(j => x(i) - x(i + j))
        val l  = if (ls.isEmpty) rs.max else ls.max
        val r  = if (rs.isEmpty) l else rs.max
        0.5 * (l + r)
      }
    }
    val pos = (from until hi).map(score).filter(_ > 0)
    if (pos.isEmpty) return Array.empty
    val m      = pos.sum / pos.size
    val sd     = math.sqrt(pos.map(v => (v - m) * (v - m)).sum / pos.size)
    val thresh = m + h * sd
    val cands = (from until hi).filter { i =>
      score(i) >= thresh && (i == 0 || x(i) >= x(i - 1)) && (i == n - 1 || x(i) >= x(i + 1))
    }
    val kept = scala.collection.mutable.ArrayBuffer.empty[Int]
    cands.foreach { c =>
      if (kept.nonEmpty && c - kept.last <= k) {
        if (x(c) > x(kept.last)) { kept.remove(kept.length - 1); kept += c }
      } else kept += c
    }
    kept.toArray
  }

  test("peaks equal the collection-based definition on noisy, tied and spiky inputs") {
    val rnd = new scala.util.Random(11)
    for (trial <- 0 until 300) {
      val n = 20 + rnd.nextInt(400)
      val t = 4 + rnd.nextInt(60)
      val x = (trial % 3) match {
        case 0 => Array.tabulate(n)(i => math.cos(2 * math.Pi * i / t) + 0.3 * rnd.nextGaussian())
        case 1 => Array.fill(n)(rnd.nextInt(4).toDouble) // heavy ties
        case _ => Array.tabulate(n)(i => if (rnd.nextInt(10) == 0) 5 * rnd.nextDouble() else 0.0)
      }
      val k     = 1 + rnd.nextInt(t / 2)
      val h     = Array(0.0, 0.5, 1.0)(rnd.nextInt(3))
      val from  = rnd.nextInt(n / 4)
      val until = if (rnd.nextBoolean()) -1 else from + rnd.nextInt(n - from + 1)
      assert(PeakDetection.peaks(x, k, h, from, until).toSeq == collectionPeaks(x, k, h, from, until).toSeq,
        s"trial $trial: n=$n k=$k h=$h from=$from until=$until")
    }
  }
}
