package repro.wavelet

import org.scalatest.funsuite.AnyFunSuite

class DaubechiesSpec extends AnyFunSuite {

  private val sqrt2 = math.sqrt(2.0)

  test("db1 is the Haar filter") {
    val g = Daubechies.scaling(1)
    assert(g.length == 2)
    g.foreach(v => assert(math.abs(v - 1 / sqrt2) < 1e-12))
  }

  for (p <- 2 to 4) {
    test(s"generated db$p matches the published table") {
      val table = Daubechies.scaling(p)        // hardcoded
      val gen   = Daubechies.generate(p)       // spectral factorization
      assert(gen.length == table.length)
      table.indices.foreach { i =>
        assert(math.abs(gen(i) - table(i)) < 1e-8,
          s"tap $i: generated ${gen(i)} vs table ${table(i)}")
      }
    }
  }

  for (p <- 1 to 12) {
    test(s"db$p filter identities: Σg=√2, ‖g‖=1, even-shift orthogonality") {
      val g = Daubechies.scaling(p)
      assert(g.length == 2 * p)
      assert(math.abs(g.sum - sqrt2) < 1e-9, s"sum ${g.sum}")
      assert(math.abs(g.map(v => v * v).sum - 1.0) < 1e-9)
      // Σ g_l g_{l+2m} = 0 for m ≠ 0.
      for (m <- 1 until p) {
        val dot = (0 until 2 * p - 2 * m).map(l => g(l) * g(l + 2 * m)).sum
        assert(math.abs(dot) < 1e-8, s"shift $m dot $dot")
      }
    }
  }

  for (p <- 1 to 10) {
    test(s"db$p wavelet filter: zero sum and quadrature mirror relation") {
      val h = Daubechies.wavelet(p)
      val g = Daubechies.scaling(p)
      assert(math.abs(h.sum) < 1e-8)
      assert(math.abs(h.map(v => v * v).sum - 1.0) < 1e-9)
      // h ⊥ g (orthonormality of the two-channel bank).
      val dot = h.zip(g).map { case (a, b) => a * b }.sum
      assert(math.abs(dot) < 1e-8)
    }
  }

  for (p <- 2 to 8) {
    test(s"db$p wavelet has $p vanishing moments") {
      val h = Daubechies.wavelet(p)
      for (m <- 0 until p) {
        val mom = h.indices.map(l => h(l) * math.pow(l.toDouble, m.toDouble)).sum
        assert(math.abs(mom) < 1e-5, s"moment $m = $mom")
      }
    }
  }

  test("db10 (the RobustPeriod default) generates without error, 20 taps") {
    val g = Daubechies.scaling(10)
    assert(g.length == 20)
    assert(g(0) > 0) // sign convention pinned
  }

  for (p <- Seq(2, 10)) {
    test(s"db$p filters are built once and returned as copies") {
      val first = Daubechies.scaling(p)
      val kept  = first.clone()
      assert(Daubechies.scaling(p).sameElements(first))
      first(0) = 42.0
      assert(Daubechies.scaling(p).sameElements(kept))
    }
  }

  test("unsupported order rejected") {
    intercept[IllegalArgumentException] { Daubechies.generate(25) }
  }
}
