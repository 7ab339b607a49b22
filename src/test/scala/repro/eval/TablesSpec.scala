package repro.eval

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.eval.Tables.ForecastRow
import repro.forecast.{HarmonicForecaster, Metrics}
import repro.spark.SparkDetect
import repro.synth.Datasets

class TablesSpec extends SparkSpec {

  /** Table 6 as first written: its own `mapPartitions` loop detects on the
    * 840-point training prefix and forecasts both horizons per (series,
    * detector) — the reference `Tables.table6` must reproduce.
    */
  private def table6Loop(count: Int): DataFrame = {
    import spark.implicits._
    val trainLen  = 840
    val horizons  = Seq(84, 168)
    val detectors = Tables.multiDetectors
    val ds = SparkDetect.toDataset(spark, Datasets.yahooLike(count, a4 = true, seed = 6100))
    val rows = ds.mapPartitions { it =>
      it.flatMap { s =>
        val train = s.values.take(trainLen)
        detectors.iterator.flatMap { d =>
          val periods = d.detect(train)
          val model   = HarmonicForecaster.fit(train, periods)
          horizons.iterator.map { h =>
            val pred   = HarmonicForecaster.forecast(model, trainLen, h)
            val actual = s.values.slice(trainLen, trainLen + h)
            ForecastRow(d.name, h, Metrics.rmse(pred, actual), Metrics.mae(pred, actual))
          }
        }
      }
    }
    rows.createOrReplaceTempView("forecasts_loop")
    spark.sql(
      """SELECT algo, horizon, AVG(rmse) AS rmse, AVG(mae) AS mae, COUNT(*) AS n
        |FROM forecasts_loop GROUP BY algo, horizon ORDER BY algo, horizon""".stripMargin)
  }

  test("Table 6 through SparkDetect equals its own detection loop exactly") {
    def rows(df: DataFrame) = df.collect().toSeq
      .map(r => (r.getString(0), r.getInt(1), r.getDouble(2), r.getDouble(3), r.getLong(4)))
    val want = rows(table6Loop(4))
    val got  = rows(Tables.table6(spark, 4))
    assert(want.size == Tables.multiDetectors.size * 2)
    assert(want.forall(_._5 == 4))
    assert(got == want)
  }
}
