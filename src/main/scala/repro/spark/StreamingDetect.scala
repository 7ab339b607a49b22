package repro.spark

import org.apache.spark.sql.{Dataset, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.baselines.Detector

/** Structured Streaming driver: per-point telemetry arrives as a stream;
  * state per series accumulates points and a detection is emitted once the
  * series is complete (monitoring pipelines know the window length up
  * front).
  *
  * A series of advertised length `n` is complete when every `t` in
  * `[0, n)` has arrived; `n` is read from the current micro-batch. Points
  * with `t` outside that range are dropped, a duplicated `t` keeps the
  * value that arrived last, and a hole is never filled: a series with a
  * missing `t` emits nothing and its state is held (there is no timeout).
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
          val n    = pts.headOption.map(_.n).getOrElse(-1)
          val acc  = prev ++ pts.collect { case p if p.t >= 0 && p.t < n => p.t -> p.value }
          if (n > 0 && (0 until n).forall(t => acc.contains(t.toLong))) {
            state.remove()
            val values = Array.tabulate(n)(t => acc(t.toLong))
            Iterator.single(SparkDetect.timed(detector, id, cond, values, Array.empty))
          } else {
            state.update(SeriesState(acc))
            Iterator.empty
          }
      }(Encoders.product[SeriesState], Encoders.product[DetectionRow])
  }
}
