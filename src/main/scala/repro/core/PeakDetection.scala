package repro.core

/** Peak detection for ACF sequences (Palshikar 2009, spike function S1).
  *
  * For each point the spike score is the mean of the maximum rises over the
  * k left and k right neighbours; points whose score exceeds
  * mean + h·stddev of the positive scores are kept, then peaks closer than
  * `k` apart are pruned keeping the taller one.
  */
object PeakDetection {

  /** Indices of detected peaks in `x`, restricted to [from, until). */
  def peaks(x: Array[Double], k: Int = 3, h: Double = 1.0,
            from: Int = 0, until: Int = -1): Array[Int] = {
    val n  = x.length
    val hi = if (until < 0) n else math.min(until, n)
    if (hi - from < 3) return Array.empty
    val score = new Array[Double](n)
    var i = from
    while (i < hi) {
      var left  = Double.NegativeInfinity
      var right = Double.NegativeInfinity
      var j = 1
      while (j <= k) {
        if (i - j >= 0) left = math.max(left, x(i) - x(i - j))
        if (i + j < n) right = math.max(right, x(i) - x(i + j))
        j += 1
      }
      if (left == Double.NegativeInfinity) left = right
      if (right == Double.NegativeInfinity) right = left
      score(i) = 0.5 * (left + right)
      i += 1
    }
    // Mean and standard deviation of the positive scores.
    var pos = 0
    var sum = 0.0
    i = from
    while (i < hi) { if (score(i) > 0) { sum += score(i); pos += 1 }; i += 1 }
    if (pos == 0) return Array.empty
    val m  = sum / pos
    var ss = 0.0
    i = from
    while (i < hi) { if (score(i) > 0) ss += (score(i) - m) * (score(i) - m); i += 1 }
    val sd = math.sqrt(ss / pos)
    // ≥ not >: with a single positive score sd = 0 and the lone true peak
    // must still qualify.
    val thresh = m + h * sd
    // Candidates in order; one within k of the last kept peak replaces it
    // only if taller.
    val kept = new Array[Int](hi - from)
    var nk   = 0
    i = from
    while (i < hi) {
      if (score(i) >= thresh && (i == 0 || x(i) >= x(i - 1)) && (i == n - 1 || x(i) >= x(i + 1))) {
        if (nk > 0 && i - kept(nk - 1) <= k) { if (x(i) > x(kept(nk - 1))) kept(nk - 1) = i }
        else { kept(nk) = i; nk += 1 }
      }
      i += 1
    }
    java.util.Arrays.copyOf(kept, nk)
  }
}
