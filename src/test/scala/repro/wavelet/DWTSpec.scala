package repro.wavelet

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DWTSpec extends AnyFunSuite {

  for (p <- Seq(1, 2, 4)) {
    test(s"orthonormal DWT preserves energy (db$p)") {
      val rnd = new Random(p)
      val x = Array.fill(256)(rnd.nextGaussian())
      val dec = DWT.transform(x, 4, p)
      val in  = x.map(v => v * v).sum
      val out = dec.details.map(_.map(v => v * v).sum).sum + dec.approx.map(v => v * v).sum
      assert(math.abs(in - out) < 1e-8 * in)
    }
  }

  test("detail lengths halve per level") {
    val x = Array.fill(320)(1.0)
    val dec = DWT.transform(x, 3, 4)
    assert(dec.details(0).length == 160)
    assert(dec.details(1).length == 80)
    assert(dec.details(2).length == 40)
    assert(dec.approx.length == 40)
  }

  test("non multiple-of-2^J input truncated, not crashed") {
    val x = Array.fill(1000)(1.0)
    val dec = DWT.transform(x, 4, 4) // usable = 992
    assert(dec.details(0).length == 496)
  }

  test("constant signal: details vanish") {
    val dec = DWT.transform(Array.fill(128)(3.0), 3, 4)
    dec.details.foreach(d => assert(d.map(math.abs).max < 1e-9))
  }

  test("sine energy concentrates in matching DWT level") {
    val n = 1024
    val x = Array.tabulate(n)(t => math.sin(2 * math.Pi * t / 48.0))
    val dec = DWT.transform(x, 6, 4)
    val vars = dec.details.map(d => d.map(v => v * v).sum / d.length)
    assert(vars.indexOf(vars.max) + 1 == 5, s"variances ${vars.mkString(",")}")
  }

  test("too short input rejected") {
    intercept[IllegalArgumentException] { DWT.transform(Array.fill(8)(1.0), 4, 4) }
  }
}
