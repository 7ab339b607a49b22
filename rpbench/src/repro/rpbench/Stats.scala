package repro.rpbench

import repro.eval.Scoring

/** Summary statistics the benchmark reports. */
object Stats {

  val Tolerance = 0.02

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else 0.5 * (s(n / 2 - 1) + s(n / 2))
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** The highest percentile with at least ten samples beyond it: the
    * eleventh-largest sample, at percentile 100·(n − 10)/n.
    */
  final case class Tail(value: Double, percentile: Double, samples: Int)

  def tail(xs: Seq[Double]): Tail = {
    val n = xs.length
    require(n >= 11, s"the tail needs at least 11 samples, got $n")
    Tail(xs.sorted.apply(n - 11), 100.0 * (n - 10) / n, n)
  }

  /** Micro-F1 at ±2% pooled over every (detected, truth) pair. */
  def pooledF1(pairs: Seq[(Seq[Int], Seq[Int])]): Double =
    Scoring.aggregate(pairs.map { case (d, t) => Scoring.score(d, t, Tolerance) }).f1
}
