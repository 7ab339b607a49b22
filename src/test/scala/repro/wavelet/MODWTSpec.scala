package repro.wavelet

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MODWTSpec extends AnyFunSuite {

  for (p <- Seq(1, 2, 4, 10); levels <- Seq(1, 3, 5)) {
    test(s"energy preservation: ‖x‖² = Σ‖w_j‖² + ‖v_J‖² (db$p, J=$levels)") {
      val rnd = new Random(p * 10 + levels)
      val x = Array.fill(512)(rnd.nextGaussian())
      val dec = MODWT.transform(x, levels, p)
      val energyIn  = x.map(v => v * v).sum
      val energyOut = dec.w.map(_.map(v => v * v).sum).sum + dec.v.map(v => v * v).sum
      assert(math.abs(energyIn - energyOut) < 1e-8 * energyIn,
        s"$energyIn vs $energyOut")
    }
  }

  test("coefficient arrays keep full length N at every level (MODWT, not DWT)") {
    val x = Array.fill(300)(1.0)
    val dec = MODWT.transform(x, 4, 4)
    assert(dec.w.forall(_.length == 300) && dec.v.length == 300)
  }

  test("handles arbitrary (non power of two) sample sizes") {
    val rnd = new Random(1)
    for (n <- Seq(97, 250, 1000, 1023)) {
      val dec = MODWT.transform(Array.fill(n)(rnd.nextGaussian()), 3, 4)
      assert(dec.w(0).length == n)
    }
  }

  test("constant signal: wavelet coefficients vanish, scaling carries the mean") {
    val dec = MODWT.transform(Array.fill(256)(5.0), 3, 4)
    dec.w.foreach(w => assert(w.map(math.abs).max < 1e-9))
    // Each scaling step multiplies the DC gain by Σg/√2 = 1.
    assert(dec.v.forall(v => math.abs(v - 5.0) < 1e-9))
  }

  test("band-pass isolation: a period-48 sine concentrates at level 5 (periods 32..64)") {
    val n = 960
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 48.0))
    val dec = MODWT.transform(x, 7, 10)
    val vars = dec.w.map(w => w.map(v => v * v).sum / n)
    val best = vars.indexOf(vars.max) + 1
    assert(best == 5, s"expected level 5, level variances ${vars.mkString(",")}")
  }

  test("band-pass isolation: period-10 sine concentrates at level 3 (periods 8..16)") {
    val n = 1000
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 10.0))
    val dec = MODWT.transform(x, 6, 10)
    val vars = dec.w.map(w => w.map(v => v * v).sum / n)
    assert(vars.indexOf(vars.max) + 1 == 3, s"variances ${vars.mkString(",")}")
  }

  test("two interlaced sines split into their own levels") {
    val n = 1024
    val x = Array.tabulate(n)(t =>
      math.sin(2 * math.Pi * t / 12.0) + math.sin(2 * math.Pi * t / 96.0))
    val dec = MODWT.transform(x, 7, 10)
    val vars = dec.w.map(w => w.map(v => v * v).sum / n).toSeq
    val ranked = vars.zipWithIndex.sortBy(-_._1).map(_._2 + 1).take(2).toSet
    // Period 12 → level 3 (8..16); period 96 → level 6 (64..128).
    assert(ranked == Set(3, 6), s"top levels $ranked, vars $vars")
  }

  test("filter width formula L_j = (2^j − 1)(L1 − 1) + 1") {
    assert(MODWT.filterWidth(20, 1) == 20)
    assert(MODWT.filterWidth(20, 2) == 58)
    assert(MODWT.filterWidth(8, 3) == 50)
  }

  test("defaultLevels scales with log2 N and respects the cap") {
    assert(MODWT.defaultLevels(1000, 10, maxLevels = 10) == 7)
    assert(MODWT.defaultLevels(16, 10, maxLevels = 10) == 2)
    assert(MODWT.defaultLevels(1 << 20, 10, maxLevels = 10) == 10)
  }

  test("level-1 coefficients match direct convolution with unit filters") {
    val rnd = new Random(9)
    val n = 64
    val x = Array.fill(n)(rnd.nextGaussian())
    val dec = MODWT.transform(x, 1, 4)
    val h = Daubechies.wavelet(4).map(_ / math.sqrt(2.0))
    (0 until n).foreach { t =>
      val direct = h.indices.map(l => h(l) * x(Math.floorMod(t - l, n))).sum
      assert(math.abs(dec.w(0)(t) - direct) < 1e-12)
    }
  }
}
