package repro.numerics

/** Symmetric positive-definite banded linear solver (banded Cholesky).
  *
  * Storage: `band(d)(i)` holds A(i, i+d) for diagonal offset d in 0..bw;
  * the solve is O(N·bw²). The program's one linear solver, with two callers:
  * the Hodrick–Prescott trend filter, whose normal matrix `I + 2λ DᵀD` is
  * pentadiagonal (bw = 2), and the harmonic forecaster, whose dense ridge
  * normal equations are a full band (bw = dim − 1).
  */
object Banded {

  /** Cholesky factorization A = L Lᵀ of a symmetric banded SPD matrix.
    * Returns L in the same banded layout (`l(d)(i)` = L(i+d, i)).
    */
  private def cholesky(band: Array[Array[Double]]): Array[Array[Double]] = {
    val bw = band.length - 1
    val n  = band(0).length
    val l  = Array.ofDim[Double](bw + 1, n)
    var j  = 0
    while (j < n) {
      var s = band(0)(j)
      var k = math.max(0, j - bw)
      while (k < j) {
        val d = j - k
        s -= l(d)(k) * l(d)(k)
        k += 1
      }
      // Not `require`: its by-name message would capture the var `s` and
      // so allocate a box and a closure on every column.
      if (!(s > 0))
        throw new IllegalArgumentException(s"requirement failed: matrix not SPD at column $j (pivot $s)")
      l(0)(j) = math.sqrt(s)
      var i = j + 1
      val iMax = math.min(n - 1, j + bw)
      while (i <= iMax) {
        // A(i, j) with i > j is stored at band(i - j)(j).
        var t = band(i - j)(j)
        var k2 = math.max(0, i - bw)
        while (k2 < j) {
          val di = i - k2
          val dj = j - k2
          if (di <= bw) t -= l(di)(k2) * l(dj)(k2)
          k2 += 1
        }
        l(i - j)(j) = t / l(0)(j)
        i += 1
      }
      j += 1
    }
    l
  }

  /** Solve A x = b: factor A = L Lᵀ, then forward and back substitution. */
  def solve(band: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val l  = cholesky(band)
    val bw = l.length - 1
    val n  = b.length
    val y  = new Array[Double](n)
    var i  = 0
    while (i < n) { // L y = b
      var s = b(i)
      var d = 1
      while (d <= math.min(bw, i)) { s -= l(d)(i - d) * y(i - d); d += 1 }
      y(i) = s / l(0)(i)
      i += 1
    }
    val x = new Array[Double](n)
    i = n - 1
    while (i >= 0) { // Lᵀ x = y
      var s = y(i)
      var d = 1
      while (d <= math.min(bw, n - 1 - i)) { s -= l(d)(i) * x(i + d); d += 1 }
      x(i) = s / l(0)(i)
      i -= 1
    }
    x
  }
}
