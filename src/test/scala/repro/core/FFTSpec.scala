package repro.core

import org.jtransforms.fft.DoubleFFT_1D
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class FFTSpec extends AnyFunSuite {

  /** Naive O(n²) DFT, the oracle for `FFT.forward`. */
  private def naiveForward(x: Array[Double]): Array[Double] = {
    val n   = x.length
    val out = new Array[Double](2 * n)
    var k   = 0
    while (k < n) {
      var re = 0.0; var im = 0.0
      var t  = 0
      while (t < n) {
        val ang = -2 * math.Pi * k * t / n
        re += x(t) * math.cos(ang)
        im += x(t) * math.sin(ang)
        t += 1
      }
      out(2 * k) = re; out(2 * k + 1) = im
      k += 1
    }
    out
  }

  for (n <- Seq(2, 3, 5, 7, 8, 16, 17, 60, 100, 128, 251, 1000, 1680, 3360)) {
    test(s"forward FFT matches naive DFT (n=$n)") {
      val rnd = new Random(n)
      val x = Array.fill(n)(rnd.nextGaussian())
      val fast = FFT.forward(x)
      val slow = naiveForward(x)
      fast.indices.foreach { i =>
        assert(math.abs(fast(i) - slow(i)) < 1e-6 * math.max(1.0, n),
          s"bin $i: ${fast(i)} vs ${slow(i)}")
      }
    }
  }

  for (n <- Seq(4, 10, 33, 256, 999)) {
    test(s"inverse(forward(x)) == x (n=$n)") {
      val rnd = new Random(n + 7)
      val x = Array.fill(n)(rnd.nextGaussian())
      val back = FFT.forward(x)
      FFT.plan(n).complexInverse(back)
      x.indices.foreach { i =>
        assert(math.abs(back(2 * i) - x(i)) < 1e-9)
        assert(math.abs(back(2 * i + 1)) < 1e-9)
      }
    }
  }

  test("Parseval: Σ|x|² == (1/n)Σ|X|²") {
    val rnd = new Random(1)
    val x = Array.fill(240)(rnd.nextGaussian())
    val spec = FFT.forward(x)
    val timeEnergy = x.map(v => v * v).sum
    val freqEnergy = (0 until 240).map(k => spec(2 * k) * spec(2 * k) + spec(2 * k + 1) * spec(2 * k + 1)).sum / 240
    assert(math.abs(timeEnergy - freqEnergy) < 1e-8 * timeEnergy)
  }

  test("DC signal concentrates at bin 0") {
    val spec = FFT.forward(Array.fill(64)(3.0))
    assert(math.abs(spec(0) - 192.0) < 1e-9)
    (1 until 64).foreach(k => assert(math.abs(spec(2 * k)) < 1e-9 && math.abs(spec(2 * k + 1)) < 1e-9))
  }

  test("pure cosine at bin k concentrates there with amplitude n/2") {
    val n = 128; val k0 = 9
    val x = Array.tabulate(n)(t => math.cos(2 * math.Pi * k0 * t / n))
    val spec = FFT.forward(x)
    assert(math.abs(spec(2 * k0) - n / 2.0) < 1e-8)
    assert(math.abs(spec(2 * (n - k0)) - n / 2.0) < 1e-8)
    (1 until n).filter(k => k != k0 && k != n - k0).foreach { k =>
      assert(math.hypot(spec(2 * k), spec(2 * k + 1)) < 1e-7)
    }
  }

  test("linearity of the transform") {
    val rnd = new Random(3)
    val a = Array.fill(50)(rnd.nextGaussian())
    val b = Array.fill(50)(rnd.nextGaussian())
    val sum = FFT.forward(Array.tabulate(50)(i => 2 * a(i) + 3 * b(i)))
    val fa = FFT.forward(a); val fb = FFT.forward(b)
    sum.indices.foreach(i => assert(math.abs(sum(i) - 2 * fa(i) - 3 * fb(i)) < 1e-9))
  }

  test("cached plans on 4 threads give bit-identical output to fresh plans") {
    // Split-radix, mixed-radix and Bluestein (factor 7) lengths.
    val lengths = Seq(1024, 1000, 1680, 3360)
    val inputs  = lengths.map { n => val rnd = new Random(n); Array.fill(2 * n)(rnd.nextGaussian()) }
    val want    = inputs.map { a => val b = a.clone(); new DoubleFFT_1D(a.length / 2L).complexForward(b); b }
    val mismatches = new java.util.concurrent.atomic.AtomicInteger
    val threads = (0 until 4).map { id =>
      new Thread(() => {
        (0 until 50).foreach { rep =>
          val i = (id + rep) % lengths.size
          val b = inputs(i).clone()
          FFT.plan(lengths(i)).complexForward(b)
          if (!java.util.Arrays.equals(b, want(i))) mismatches.incrementAndGet()
        }
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(mismatches.get == 0)
  }

  test("plan cache keeps one plan per length and thread, and stays bounded") {
    val here = FFT.plan(48)
    assert(FFT.plan(48) eq here)
    var other: FFT.Plan = null
    var largest = 0
    val t = new Thread(() => {
      other = FFT.plan(48)
      (1 to 3 * FFT.MaxCachedLengths).foreach { n =>
        FFT.plan(n)
        largest = math.max(largest, FFT.cachedLengths)
      }
    })
    t.start(); t.join()
    assert(other != null && !(other eq here))
    assert(largest == FFT.MaxCachedLengths)
  }
}
