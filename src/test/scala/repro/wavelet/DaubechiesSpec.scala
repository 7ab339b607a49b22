package repro.wavelet

import org.scalatest.funsuite.AnyFunSuite

class DaubechiesSpec extends AnyFunSuite {

  private val sqrt2  = math.sqrt(2.0)
  private val orders = Seq(1, 2, 3, 4, 10)

  test("db1 is the Haar filter") {
    val g = Daubechies.scaling(1)
    assert(g.length == 2)
    g.foreach(v => assert(math.abs(v - 1 / sqrt2) < 1e-12))
  }

  for (p <- orders) {
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

  for (p <- orders) {
    test(s"db$p wavelet filter: zero sum and quadrature mirror relation") {
      val h = Daubechies.wavelet(p)
      val g = Daubechies.scaling(p)
      assert(math.abs(h.sum) < 1e-8)
      assert(math.abs(h.map(v => v * v).sum - 1.0) < 1e-9)
      // h ⊥ g (orthonormality of the two-channel bank).
      val dot = h.zip(g).map { case (a, b) => a * b }.sum
      assert(math.abs(dot) < 1e-8)
      // h_l = (−1)^l g_{L−1−l}.
      h.indices.foreach(l => assert(h(l) == (if (l % 2 == 0) 1.0 else -1.0) * g(h.length - 1 - l)))
    }
  }

  // The published db2–db4 tables hold to ~1e-12, so an absolute bound
  // serves them; db10's moments reach 8e-5 at m = 9 by rounding alone,
  // so its bound is relative to Σ |h_l|·l^m.
  for (p <- Seq(2, 3, 4, 10)) {
    test(s"db$p wavelet has $p vanishing moments") {
      val h = Daubechies.wavelet(p)
      for (m <- 0 until p) {
        val mom   = h.indices.map(l => h(l) * math.pow(l.toDouble, m.toDouble)).sum
        val scale = h.indices.map(l => math.abs(h(l)) * math.pow(l.toDouble, m.toDouble)).sum
        val bound = if (p == 10) 1e-12 * scale else 1e-5
        assert(math.abs(mom) <= bound, s"moment $m = $mom (scale $scale)")
      }
    }
  }

  test("db10 (the RobustPeriod default): 20 taps, extremal phase") {
    val g = Daubechies.scaling(10)
    assert(g.length == 20)
    assert(g(0) > 0) // sign convention pinned
    // Energy up front: every proper partial energy Σ_{l≤m} g_l² is at least
    // the reversed filter's (the full sums agree up to rounding).
    val r = g.reverse
    var eg = 0.0
    var er = 0.0
    for (m <- 0 until g.length - 1) {
      eg += g(m) * g(m)
      er += r(m) * r(m)
      assert(eg >= er, s"partial energy to $m: $eg < reversed $er")
    }
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
    for (p <- Seq(5, 6, 25)) {
      val e = intercept[IllegalArgumentException] { Daubechies.scaling(p) }
      assert(e.getMessage.contains("1, 2, 3, 4, 10"), e.getMessage)
    }
  }
}
