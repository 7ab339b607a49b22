package repro.core

/** Fixed-ρ ADMM (Boyd et al. 2011) for the per-frequency Huber regression
  * of Eq. 6–7 — the reference the production Newton/IRLS solver in
  * [[HuberPeriodogram]] is checked against. Slow (two passes per
  * iteration, linear convergence) but simple enough to trust.
  */
object HuberAdmm {

  /** Proximal operator of γ_ζ/ρ: argmin_z γ_ζ(z) + (ρ/2)(z − v)². */
  def huberProx(v: Double, zeta: Double, rho: Double): Double =
    if (math.abs(v) <= zeta * (1.0 + rho) / rho) rho * v / (1.0 + rho)
    else v - (zeta / rho) * math.signum(v)

  /** Huber M-periodogram at a single frequency index k of an n-point
    * series: P^M_k = (n/4)·‖β̂‖² with
    * β̂ = argmin Σ_t γ_ζ(φ_t β − x_t), φ_t = [cos(2πkt/n), sin(2πkt/n)].
    *
    * ADMM with z = φβ − x: closed-form 2×2 normal-equation β-step, Huber
    * prox z-step, scaled dual u. Warm-started at the least-squares
    * (vanilla DFT) solution.
    */
  def huberAtK(x: Array[Double], k: Int, zeta: Double, rho: Double = 1.0,
               maxIter: Int = 50, tol: Double = 1e-8): Double = {
    val n = x.length
    val cos = Array.tabulate(n)(t => math.cos(2 * math.Pi * ((k.toLong * t) % n) / n))
    val sin = Array.tabulate(n)(t => math.sin(2 * math.Pi * ((k.toLong * t) % n) / n))
    // Precompute φᵀφ (2×2, SPD away from k = 0 and Nyquist).
    var scc = 0.0; var scs = 0.0; var sss = 0.0
    var t = 0
    while (t < n) { scc += cos(t) * cos(t); scs += cos(t) * sin(t); sss += sin(t) * sin(t); t += 1 }
    val det = scc * sss - scs * scs
    if (det <= 1e-12) { // degenerate regressor (k = 0 or n/2): fall back
      var s = 0.0; t = 0
      while (t < n) { s += x(t) * (if (k == 0) 1.0 else cos(t)); t += 1 }
      return s * s / n
    }
    // Least-squares warm start.
    var b1 = 0.0; var b2 = 0.0
    var rx1 = 0.0; var rx2 = 0.0
    t = 0
    while (t < n) { rx1 += cos(t) * x(t); rx2 += sin(t) * x(t); t += 1 }
    b1 = (sss * rx1 - scs * rx2) / det
    b2 = (scc * rx2 - scs * rx1) / det

    val z = new Array[Double](n)
    val u = new Array[Double](n)
    t = 0
    while (t < n) { z(t) = cos(t) * b1 + sin(t) * b2 - x(t); t += 1 }

    var it = 0
    var moved = Double.MaxValue
    while (it < maxIter && moved > tol) {
      // β-step: (φᵀφ) β = φᵀ (x + z − u)
      var r1 = 0.0; var r2 = 0.0
      t = 0
      while (t < n) {
        val target = x(t) + z(t) - u(t)
        r1 += cos(t) * target; r2 += sin(t) * target
        t += 1
      }
      val nb1 = (sss * r1 - scs * r2) / det
      val nb2 = (scc * r2 - scs * r1) / det
      moved = math.hypot(nb1 - b1, nb2 - b2)
      b1 = nb1; b2 = nb2
      // z-step (Huber prox) and dual update. Convergence is judged on BOTH
      // β and z movement: β alone can stall for an iteration while the
      // dual is still accumulating, which would stop ADMM far from the
      // optimum.
      t = 0
      while (t < n) {
        val res = cos(t) * b1 + sin(t) * b2 - x(t)
        val v   = res + u(t)
        val nz  = huberProx(v, zeta, rho)
        val dz  = math.abs(nz - z(t))
        if (dz > moved) moved = dz
        z(t) = nz
        u(t) = v - nz
        t += 1
      }
      it += 1
    }
    n / 4.0 * (b1 * b1 + b2 * b2)
  }
}
