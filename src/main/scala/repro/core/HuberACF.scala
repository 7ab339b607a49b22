package repro.core

import repro.numerics.DoubleArrays

/** Robust ACF from the Huber-periodogram via the Wiener–Khinchin theorem
  * (Sec. 3.4.2), plus the Huber-ACF-Med validation step.
  *
  * The level series w (length N) is zero-padded to N' = 2N before the
  * periodogram, so the inverse DFT of the full-range periodogram is the
  * *linear* (not circular) autocorrelation of w; dividing by (N − t)
  * makes it unbiased. We scale so ACF(0) = 1 (see DESIGN.md §5 — Eq. 13 as
  * printed gives ACF(0) = 1/N, inconsistent with the paper's own plots).
  */
object HuberACF {

  /** ACF(t), t = 0..N−1, from the half-range periodogram (indices 0..N,
    * N the Nyquist ordinate) of the padded series: the inverse DFT of its
    * mirror to the full range P_k = P_{N'−k}, taken in place in one
    * interleaved spectrum. ACF(0) = 1 by construction.
    */
  def fromPeriodogram(pHalf: Array[Double]): Array[Double] = {
    val half = pHalf.length - 1 // N
    val n    = 2 * half         // N'
    val spec = new Array[Double](2 * n)
    var k = 0
    while (k < n) { spec(2 * k) = if (k <= half) pHalf(k) else pHalf(n - k); k += 1 }
    FFT.plan(n).complexInverse(spec)
    val p0 = spec(0)
    if (p0 <= 0) return Array.fill(half)(0.0)
    DoubleArrays.tabulate(half)(t => (half.toDouble / (half - t)) * spec(2 * t) / p0)
  }

  /** Huber-ACF-Med (Sec. 3.4.2): validate a periodogram candidate at padded
    * index `k` against the ACF. Detect ACF peaks, take the median distance
    * of peaks whose height exceeds `minHeight`, and accept it as the final
    * period iff it falls in the periodogram resolution interval
    * R_k = [½(N'/(k+1) + N'/k) − 1, ½(N'/k + N'/(k−1)) + 1].
    */
  def validate(acf: Array[Double], k: Int, nPrime: Int, minHeight: Double): Option[Int] = {
    if (k < 2) return None
    val n     = acf.length
    val tCand = nPrime.toDouble / k
    // Peak window scaled to the candidate: broad sinusoidal ACF peaks need a
    // neighborhood of ~T/4 for the spike score to see them; the unbiased
    // ACF's (N−t)⁻¹ amplification makes the last 10% of lags unusable.
    val w = math.max(2, math.round(tCand / 4).toInt)
    // Peak *locations* come from the unbiased ACF (correct shape), but the
    // height filter uses the biased scale acf(t)·(n−t)/n: the unbiased
    // N/(N−t) amplification inflates long-lag estimation noise into tall
    // spurious peaks. The search stops at 0.76·n so a period up to N/4
    // still shows 3 multiples.
    val idx = PeakDetection.peaks(acf, k = w, h = 0.5, from = 2, until = math.ceil(0.76 * n).toInt)
      .filter(i => acf(i) * (n - i).toDouble / n > minHeight)
    // ≥3 qualifying peaks: genuine periodicity keeps its (biased) ACF peaks
    // high across multiples, while a band-passed noise level decorrelates
    // after ~1 coherence time. Main guard against per-level false positives.
    if (idx.length < 3) return None
    val dists = idx.sliding(2).map(p => (p(1) - p(0)).toDouble).toArray
    val (med, mad) = RobustStats.medianMad(dists)
    // Genuine periodicity has consistent peak spacing; noise does not.
    if (mad > math.max(2.0, 0.15 * med)) return None
    val lo  = 0.5 * (nPrime.toDouble / (k + 1) + nPrime.toDouble / k) - 1
    val hi  = 0.5 * (nPrime.toDouble / k + nPrime.toDouble / (k - 1)) + 1
    val per = math.round(med).toInt
    if (med >= lo && med <= hi && per >= 2 && per <= n / 2) Some(per) else None
  }
}

/** Conventional ACF estimators (baseline substrate). */
object ACF {

  /** Unbiased normalized ACF via FFT (zero-padding to avoid circularity):
    * ACF(t) = [Σ w_n w_{n+t} / (N−t)] / [Σ w² / N], ACF(0) = 1.
    */
  def unbiased(x: Array[Double]): Array[Double] = {
    val n = x.length
    val padded = new Array[Double](2 * n)
    System.arraycopy(x, 0, padded, 0, n)
    val pHalf = HuberPeriodogram.vanilla(padded)
    HuberACF.fromPeriodogram(pHalf)
  }

  /** Biased normalized ACF (divides by N at every lag) — what R's `acf`
    * computes; used by SAZED.
    */
  def biased(x: Array[Double]): Array[Double] = {
    val u = unbiased(x)
    val n = x.length
    DoubleArrays.tabulate(n)(t => u(t) * (n - t).toDouble / n)
  }
}
