package repro

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Ablations, FindFrequency, SazedMaj, SazedOpt}
import repro.core.RobustPeriod
import repro.eval.Tables
import repro.synth.Datasets
import repro.synth.TimeSeriesGen.{Sin, Square}
import scala.jdk.CollectionConverters._

/** Golden results: the detectors' outputs on a fixed corpus, pinned in
  * `src/test/resources/golden-results.txt`. A change meant to be
  * bit-for-bit (a faster kernel, a refactor) must leave every line equal.
  *
  * The corpus is 40 series: Table 2 (sin3 mild and moderate, Yahoo-A3-
  * and A4-like), the Table 3 square waves, CRAN-like and the six
  * Alibaba-like series. Per series the file holds the full
  * `RobustPeriod.detect` result (every `LevelResult` field, doubles as raw
  * bits in hex), NR-RobustPeriod's periods, the periods of the four
  * Table 2 detectors, of the Table 1 baselines (findFrequency, SAZED_maj,
  * SAZED_opt) and of the Huber-Fisher and Huber-Siegel-ACF ablations.
  *
  * What it cannot see: the Huber solver's rare paths. No ordinate of this
  * corpus, of the `spark-table2` benchmark pools or of the Table 1, 3, 4
  * and 5 corpora takes an iterate with ‖β‖ > ζ or an IRLS step (none in
  * ~2.65M passes, 963k exact ordinates, counted by an instrumented copy),
  * so a change there leaves this file equal. `HuberPeriodogramSpec`'s
  * ADMM comparisons are those paths' only gate (DESIGN.md §5).
  *
  * Regenerate only when a change is meant to alter results:
  * `sbt "Test/runMain repro.Golden src/test/resources/golden-results.txt"`.
  */
object Golden {

  val Resource = "/golden-results.txt"

  def corpus: Seq[Datasets.Series] =
    Datasets.multiPeriod(5, Sin, 0.1, 0.01) ++
      Datasets.multiPeriod(5, Sin, 1.0, 0.1, seed = 2300) ++
      Datasets.yahooLike(4, a4 = false) ++
      Datasets.yahooLike(4, a4 = true) ++
      Datasets.multiPeriod(6, Square, 0.1, 0.01, seed = 3100) ++
      Datasets.cranLike(10) ++
      Datasets.alibabaLike()

  private def bits(d: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))

  def lines(s: Datasets.Series): Seq[String] = {
    val key = s"${s.cond}\t${s.id}"
    val res = RobustPeriod.detect(s.values)
    Seq(s"$key\tRobustPeriod.detect\t${res.periods.mkString(",")}") ++
      res.levels.map { l =>
        s"$key\tlevel\t${l.level}\t${bits(l.variance)}\t${bits(l.fisherP)}\t" +
          s"${bits(l.periodogramPeriod)}\t${l.acfPeriod}"
      } ++
      ((Ablations.NRRobustPeriod +: Tables.multiDetectors) ++
        Seq(FindFrequency, SazedMaj, SazedOpt, Ablations.HuberFisher, Ablations.HuberSiegelACF)).map { d =>
        s"$key\t${d.name}\t${d.detect(s.values).mkString(",")}"
      }
  }

  def render(): Seq[String] = corpus.flatMap(lines)

  def main(args: Array[String]): Unit =
    Files.write(Paths.get(args(0)), render().asJava, StandardCharsets.UTF_8)
}

class GoldenSpec extends AnyFunSuite {

  test("detectors reproduce the pinned golden results bit for bit") {
    val src  = scala.io.Source.fromInputStream(getClass.getResourceAsStream(Golden.Resource), "UTF-8")
    val want = try src.getLines().toVector finally src.close()
    val got  = Golden.render().toVector
    assert(got.length == want.length, "line count")
    got.zip(want).zipWithIndex.foreach { case ((g, w), i) =>
      assert(g == w, s"line ${i + 1}: got [$g], pinned [$w]")
    }
  }
}
