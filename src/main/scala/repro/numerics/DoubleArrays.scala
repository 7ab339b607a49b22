package repro.numerics

/** Builders of `Array[Double]` that allocate the result and nothing else.
  * Scala's `Array.tabulate` and `ArrayOps.map` call their function through
  * the generic `apply`, boxing every element; the JIT removes those boxes
  * only when it happens to inline the whole call, which differs from run
  * to run. These call the specialized `apply`, so a detector allocates the
  * same bytes on every run.
  */
object DoubleArrays {

  def tabulate(n: Int)(f: Int => Double): Array[Double] = {
    val a = new Array[Double](n)
    var i = 0
    while (i < n) { a(i) = f(i); i += 1 }
    a
  }

  def map(x: Array[Double])(f: Double => Double): Array[Double] = {
    val a = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { a(i) = f(x(i)); i += 1 }
    a
  }

  /** Σx added left to right from x(0): the order, and so the bits, of `x.sum`. */
  def sum(x: Array[Double]): Double = {
    var s = if (x.isEmpty) 0.0 else x(0)
    var i = 1
    while (i < x.length) { s += x(i); i += 1 }
    s
  }
}
