package repro.rpbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.Random
import repro.synth.Datasets
import repro.synth.Datasets.Series
import repro.synth.TimeSeriesGen.Sin

/** Benchmark inputs. Each workload draws from a fixed pool of series made
  * by the program's Table 2 generators; `--seed` picks the order in which a
  * run visits the pool. Every pool series has a recorded reference, so the
  * detected periods can be checked on any seed.
  */
object Corpus {

  /** A pool of series: `gen(i)` is series `i`, with a unique id. */
  final case class Pool(name: String, size: Int, gen: Int => Series)

  // The Table 2 conditions. Ids are offset per condition so that one
  // Spark pass never holds two series with the same id.
  def mild(size: Int): Pool     = Pool("sin3-mild", size, i => sin3(i, 0.1, 0.01, 23, 0))
  def moderate(size: Int): Pool = Pool("sin3-moderate", size, i => sin3(i, 1.0, 0.1, 2300, 100000))
  def yahooA3(size: Int): Pool  = Pool("yahoo-a3", size, i => yahoo(i, a4 = false, 200000))
  def yahooA4(size: Int): Pool  = Pool("yahoo-a4", size, i => yahoo(i, a4 = true, 300000))

  /** Element `i` of `Datasets.multiPeriod(_, Sin, sigma2, eta, seed)`. */
  private def sin3(i: Int, sigma2: Double, eta: Double, seed: Long, idBase: Long): Series =
    Datasets.multiPeriod(1, Sin, sigma2, eta, seed = seed + i).head.copy(id = idBase + i)

  /** Element `i` of `Datasets.yahooLike(_, a4)` (its default seed 47). */
  private def yahoo(i: Int, a4: Boolean, idBase: Long): Series =
    Datasets.yahooLike(1, a4, seed = 47 + 100L * i).head.copy(id = idBase + i)

  /** The run's visiting order over a pool: a seeded permutation, repeated
    * if a run outlasts the pool.
    */
  def order(pool: Pool, seed: Long): Iterator[Int] = {
    val perm = new Random(seed * 7919 + pool.name.hashCode).shuffle((0 until pool.size).toVector)
    Iterator.continually(perm).flatten
  }

  def checksum(values: Array[Double]): Int = java.util.Arrays.hashCode(values)

  /** Recorded detections: (series id, algorithm) → (input checksum, periods). */
  final case class Reference(entries: Map[(Long, String), (Int, Seq[Int])]) {

    /** None if `detected` matches the record, else why it does not. */
    def mismatch(s: Series, algo: String, detected: Seq[Int]): Option[String] =
      entries.get((s.id, algo)) match {
        case None => Some(s"no reference for series ${s.id} / $algo")
        case Some((sum, _)) if sum != checksum(s.values) =>
          Some(s"input of series ${s.id} differs from the recorded input")
        case Some((_, want)) if want != detected =>
          Some(s"series ${s.id} / $algo: detected ${detected.mkString(",")}, recorded ${want.mkString(",")}")
        case _ => None
      }
  }

  def readReference(path: Path): Reference =
    Reference(Files.readAllLines(path, UTF_8).asScala.iterator
      .filterNot(l => l.isEmpty || l.startsWith("#"))
      .map { l =>
        val f = l.split("\t", -1)
        (f(0).toLong, f(1)) -> ((f(2).toInt, f(3).split(",").filter(_.nonEmpty).map(_.toInt).toSeq))
      }.toMap)

  def writeReference(path: Path, header: String, rows: Seq[(Series, String, Seq[Int])]): Unit = {
    val lines = s"# $header" +: "# id\talgo\tinput_checksum\tperiods" +:
      rows.sortBy(r => (r._1.id, r._2)).map { case (s, algo, p) =>
        s"${s.id}\t$algo\t${checksum(s.values)}\t${p.mkString(",")}"
      }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.asJava, UTF_8)
  }
}
