package repro.spark

import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.baselines.Detector

/** Structured Streaming driver: per-point telemetry arrives as a stream;
  * state per series accumulates points and a detection is emitted once the
  * advertised point count is reached (monitoring pipelines know the window
  * length up front).
  *
  * This is the streaming face of the same per-series algorithm — the
  * detector itself is identical to the batch path.
  */
object StreamingDetect {

  /** One streamed observation; `n` is the series' total expected length. */
  final case class Point(id: Long, cond: String, t: Long, value: Double, n: Int)

  final case class SeriesState(values: Map[Long, Double])

  def detections(points: Dataset[Point], detector: Detector): Dataset[DetectionRow] = {
    import points.sparkSession.implicits._
    points
      .groupByKey(p => (p.id, p.cond))
      .flatMapGroupsWithState[SeriesState, DetectionRow](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        case ((id, cond), it, state: GroupState[SeriesState]) =>
          val prev = if (state.exists) state.get.values else Map.empty[Long, Double]
          val pts  = it.toSeq
          val acc  = prev ++ pts.map(p => p.t -> p.value)
          val n    = pts.headOption.map(_.n).getOrElse(-1)
          if (n > 0 && acc.size >= n) {
            state.remove()
            val values = Array.tabulate(n)(t => acc.getOrElse(t.toLong, 0.0))
            Iterator.single(SparkDetect.timed(detector, id, cond, values, Array.empty))
          } else {
            state.update(SeriesState(acc))
            Iterator.empty
          }
      }(Encoders.product[SeriesState], Encoders.product[DetectionRow])
  }
}
