package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.eval.Tables

/** spark-submit entrypoint for the evaluation tables. `<table>` is 1–6, or
  * 7 for Tables 7 and 8; the optional count is series per condition
  * (default 100, Table 6: 40, Tables 7–8: 50; Table 4 has a fixed corpus).
  *
  *   spark-submit --class repro.jobs.TableJob repro.jar <table> [count]
  */
object TableJob {

  /** The table ids `main` and `report` accept. */
  private val TableIds = 1 to 7

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: TableJob <table> [count]; table is 1-6, or 7 for Tables 7 and 8")
    // Checked before the session is built, so a bad id starts no Spark.
    val table = args(0).toIntOption.filter(TableIds.contains).getOrElse(invalid(s"unknown table ${args(0)}"))
    val count = args.lift(1).map(c => c.toIntOption.getOrElse(invalid(s"non-numeric count $c")))
      .getOrElse(table match {
        case 6 => 40
        case 7 => 50
        case _ => 100
      })
    val spark = SparkSession.builder.appName(s"robustperiod-table$table")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(report(spark, table, count))
    finally spark.stop()
  }

  /** The rendered table(s) for `table`; leaves the session running. */
  def report(spark: SparkSession, table: Int, count: Int): String = {
    val detection = "(cond | algo | tol | precision | recall | f1 | top1 | n)"
    table match {
      case 1 => render(Tables.table1(spark, count), s"Table 1: single-period precision $detection")
      case 2 => render(Tables.table2(spark, count), s"Table 2: multi-period F1 $detection")
      case 3 => render(Tables.table3(spark, count), s"Table 3: square/triangle F1 $detection")
      case 4 =>
        Tables.table4(spark).map { case (cond, algo, det) =>
          f"$cond%-38s $algo%-16s -> ${det.mkString("(", ",", ")")}\n"
        }.mkString("\n=== Table 4: Alibaba-like datasets ===\n", "", "")
      case 5 => render(Tables.table5(spark, count), s"Table 5: ablations $detection")
      case 6 => render(Tables.table6(spark, count), "Table 6: forecasting (algo | horizon | rmse | mae | n)")
      case 7 =>
        val (rt, f1) = Tables.table7and8(spark, count)
        render(rt, "Table 7: runtime (cond | algo | avg_ms | n)") +
          render(f1, s"Table 8: F1 vs length $detection")
      case _ => invalid(s"unknown table $table")
    }
  }

  private def invalid(problem: String): Nothing =
    throw new IllegalArgumentException(s"$problem; valid: 1, 2, 3, 4, 5, 6, 7 (Tables 7 and 8)")

  private def render(df: DataFrame, title: String): String = {
    val sb = new StringBuilder(s"\n=== $title ===\n")
    df.collect().foreach { r =>
      sb.append(r.toSeq.map {
        case d: Double => f"$d%.3f"
        case x         => x.toString
      }.mkString(" | ")).append('\n')
    }
    sb.toString
  }
}
