package repro.jobs

import repro.SparkSpec
import repro.eval.Tables

class TableJobSpec extends SparkSpec {

  test("table 5 at count 2 prints the title and one row per (cond, algo, tol)") {
    val lines = TableJob.report(spark, 5, 2).split('\n').filter(_.nonEmpty)
    assert(lines.head.startsWith("=== Table 5: ablations"))
    val rows = lines.tail
    assert(rows.length == Tables.ablationDetectors.size * Tables.Tolerances.size)
    val keys = rows.map(_.split(" \\| ").take(3).toSeq)
    assert(keys.map(_(0)).distinct.toSeq == Seq("sin3(s2=2.0,eta=0.20,n=1000)"))
    assert(keys.map(_(1)).distinct.sorted.toSeq == Tables.ablationDetectors.map(_.name).sorted)
    assert(keys.distinct.length == rows.length)
    assert(rows.forall(_.split(" \\| ").last == "2"))
  }

  test("an unknown table id fails with a message that lists the valid ids") {
    val e = intercept[IllegalArgumentException](TableJob.report(spark, 9, 2))
    assert(e.getMessage.contains("unknown table 9"))
    assert(e.getMessage.contains("valid: 1, 2, 3, 4, 5, 6, 7"), e.getMessage)
  }

  test("a non-numeric table id or count fails before a session is built, listing the valid ids") {
    for (args <- Seq(Array("x"), Array("2", "x"))) {
      val e = intercept[IllegalArgumentException](TableJob.main(args))
      assert(e.getMessage.contains("valid: 1, 2, 3, 4, 5, 6, 7"), e.getMessage)
    }
  }

  test("a numeric but unknown table id fails in main before a session is built") {
    val sc = spark.sparkContext
    for (id <- Seq("9", "0")) {
      val e = intercept[IllegalArgumentException](TableJob.main(Array(id)))
      assert(e.getMessage.contains(s"unknown table $id"), e.getMessage)
      assert(e.getMessage.contains("valid: 1, 2, 3, 4, 5, 6, 7"), e.getMessage)
    }
    // main would have picked up the shared session and stopped it in `finally`.
    assert(!sc.isStopped)
  }
}
