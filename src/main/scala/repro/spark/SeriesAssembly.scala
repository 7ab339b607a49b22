package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Assembly of per-point "long" telemetry (id, t, value) into the wide
  * `SeriesRow` the detectors consume — the shape cloud-monitoring
  * pipelines emit. Uses Spark SQL higher-order functions (collect, sort by
  * timestamp, project), so the whole assembly stays in Catalyst.
  */
object SeriesAssembly {

  /** `df` columns: id LONG, cond STRING, t LONG, value DOUBLE. Truth is
    * attached separately by the caller (it is evaluation metadata, not
    * telemetry).
    */
  def fromLong(df: DataFrame, truth: Map[Long, Array[Int]] = Map.empty): Dataset[SeriesRow] = {
    import df.sparkSession.implicits._
    val truthB = df.sparkSession.sparkContext.broadcast(truth)
    df.groupBy($"id", $"cond")
      .agg(sort_array(collect_list(struct($"t", $"value"))).as("pts"))
      .select($"id", $"cond", $"pts.value".as("values"))
      .as[(Long, String, Array[Double])]
      .map { case (id, cond, values) =>
        SeriesRow(id, cond, values, truthB.value.getOrElse(id, Array.empty))
      }
  }
}
