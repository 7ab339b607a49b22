package repro.core

import org.jtransforms.fft.DoubleFFT_1D

/** FFT substrate: thin, convention-pinning wrapper over JTransforms
  * (shipped in /opt/spark/jars).
  *
  * Conventions (standard DSP):
  *   forward:  X_k = Σ_t x_t e^{-i 2π k t / n}   (no scaling)
  *   inverse:  x_t = (1/n) Σ_k X_k e^{+i 2π k t / n}
  *
  * Arbitrary lengths are supported. JTransforms picks one of three plans
  * per length: split radix for powers of 2; mixed radix (factors 4, 2, 3,
  * 5) otherwise; Bluestein when the factor left after those is ≥ 211
  * (n = 1009, a prime, is one). The test suite cross-checks against a
  * naive O(n²) DFT for prime, odd and power-of-two lengths.
  *
  * Each `complexForward` call on a mixed-radix plan allocates a 2n-double
  * work array inside JTransforms, and on a Bluestein plan a 2m-double one
  * (m the power of 2 ≥ 2n − 1); split radix allocates none of size n.
  * Reusing a plan and its caller's buffer does not avoid these, so a
  * caller that needs many transforms should need fewer of them.
  *
  * Plans are built once per length and thread: see [[plan]].
  */
object FFT {

  /** Everything precomputed for length-n transforms: the JTransforms plan
    * and, built on first use, the cos/sin(2πm/n) table, m = 0..n−1.
    */
  final class Plan private[FFT] (n: Int) {
    private val fft = new DoubleFFT_1D(n.toLong)

    /** In-place forward DFT of an interleaved complex array of length 2n. */
    def complexForward(a: Array[Double]): Unit = fft.complexForward(a)

    /** In-place inverse DFT (scaled by 1/n) of an interleaved complex array. */
    def complexInverse(a: Array[Double]): Unit = fft.complexInverse(a, true)

    lazy val cos: Array[Double] = Array.tabulate(n)(m => math.cos(2 * math.Pi * m / n))
    lazy val sin: Array[Double] = Array.tabulate(n)(m => math.sin(2 * math.Pi * m / n))
  }

  /** Lengths cached per thread before the cache is emptied. */
  private[core] val MaxCachedLengths = 32

  // Per thread, so concurrent Spark tasks never share a plan's work arrays.
  private val plans = ThreadLocal.withInitial[java.util.HashMap[Integer, Plan]](
    () => new java.util.HashMap[Integer, Plan]())

  /** The calling thread's plan for length n, built on first request. The
    * cache holds at most [[MaxCachedLengths]] lengths; a request for one
    * more empties it first.
    */
  def plan(n: Int): Plan = {
    val cache = plans.get
    var p = cache.get(n)
    if (p == null) {
      if (cache.size >= MaxCachedLengths) cache.clear()
      p = new Plan(n)
      cache.put(n, p)
    }
    p
  }

  /** Number of lengths in the calling thread's plan cache. */
  private[core] def cachedLengths: Int = plans.get.size

  /** Forward DFT of a real signal. Returns interleaved complex
    * [re0, im0, re1, im1, ...] of length 2n.
    */
  def forward(x: Array[Double]): Array[Double] = {
    val n = x.length
    val a = new Array[Double](2 * n)
    var i = 0
    while (i < n) { a(2 * i) = x(i); i += 1 }
    plan(n).complexForward(a)
    a
  }
}
