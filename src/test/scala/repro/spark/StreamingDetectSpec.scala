package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.Trigger
import repro.SparkSpec
import repro.eval.Tables
import repro.synth.Datasets

class StreamingDetectSpec extends SparkSpec {

  test("streamed per-point telemetry yields the same detections as batch") {
    import spark.implicits._
    implicit val sql = spark.sqlContext
    val series = Datasets.singlePeriodSin(2, 0.1, 0.01, seed = 55, n = 600)
    val detector = Tables.robust

    val stream = MemoryStream[StreamingDetect.Point]
    val out = StreamingDetect.detections(stream.toDS(), detector)
    val query = out.writeStream
      .format("memory")
      .queryName("stream_detections")
      .outputMode("append")
      .trigger(Trigger.ProcessingTime(0))
      .start()
    try {
      // Feed each series in three chunks across micro-batches.
      val points = series.flatMap { s =>
        s.values.zipWithIndex.map { case (v, t) =>
          StreamingDetect.Point(s.id, s.cond, t.toLong, v, s.values.length)
        }
      }
      val chunks = points.grouped(points.size / 3 + 1).toSeq
      chunks.foreach { c => stream.addData(c); query.processAllAvailable() }

      val got = spark.sql("SELECT * FROM stream_detections").as[DetectionRow]
        .collect().sortBy(_.id)
      assert(got.length == series.size, s"got ${got.length} detections")
      got.zip(series.sortBy(_.id)).foreach { case (d, s) =>
        assert(d.detected.toSeq == detector.detect(s.values), s"series ${s.id}")
      }
    } finally query.stop()
  }

  /** Streams `batches` in order, one micro-batch each, and returns every
    * detection emitted.
    */
  private def streamed(name: String, batches: Seq[Seq[StreamingDetect.Point]]): Array[DetectionRow] = {
    import spark.implicits._
    implicit val sql = spark.sqlContext
    val stream = MemoryStream[StreamingDetect.Point]
    val query = StreamingDetect.detections(stream.toDS(), Tables.robust).writeStream
      .format("memory").queryName(name).outputMode("append").start()
    try {
      batches.foreach { b => stream.addData(b); query.processAllAvailable() }
      spark.sql(s"SELECT * FROM $name").as[DetectionRow].collect()
    } finally query.stop()
  }

  private lazy val series400 = Datasets.singlePeriodSin(1, 0.1, 0.01, seed = 57, n = 400).head

  private def points(ts: Seq[Int]): Seq[StreamingDetect.Point] =
    ts.map(t => StreamingDetect.Point(series400.id, series400.cond, t.toLong,
                                      series400.values.lift(t).getOrElse(1e6), 400))

  test("a point outside [0, n) neither completes a series nor fills its hole") {
    val holed = (0 until 400).filter(_ != 123)
    // 400 points arrive, one of them at t = 400, so t = 123 is still missing.
    val got = streamed("stream_out_of_range", Seq(points(holed :+ 400), points(Seq(-1))))
    assert(got.isEmpty, s"detected with a hole at t = 123: ${got.toSeq.map(_.detected.toSeq)}")
    val done = streamed("stream_out_of_range_done", Seq(points(holed :+ 400), points(Seq(123))))
    assert(done.map(_.detected.toSeq).toSeq == Seq(Tables.robust.detect(series400.values)))
  }

  test("a duplicated t neither completes a series nor emits it twice") {
    val holed = (0 until 400).filter(_ != 7)
    assert(streamed("stream_dup_hole", Seq(points(holed :+ 8), points(Seq(8)))).isEmpty)
    val all = 0 until 400
    val got = streamed("stream_dup_full", Seq(points(all.take(250) ++ all.take(10)), points(all.drop(250)),
                                              points(Seq(3, 4))))
    assert(got.map(_.detected.toSeq).toSeq == Seq(Tables.robust.detect(series400.values)))
  }

  test("incomplete series emit nothing (state held, no spurious output)") {
    import spark.implicits._
    implicit val sql = spark.sqlContext
    val series = Datasets.singlePeriodSin(1, 0.1, 0.01, seed = 56, n = 400).head
    val stream = MemoryStream[StreamingDetect.Point]
    val out = StreamingDetect.detections(stream.toDS(), Tables.robust)
    val query = out.writeStream.format("memory").queryName("stream_partial")
      .outputMode("append").start()
    try {
      val half = series.values.take(200).zipWithIndex.map { case (v, t) =>
        StreamingDetect.Point(series.id, series.cond, t.toLong, v, 400)
      }
      stream.addData(half.toSeq)
      query.processAllAvailable()
      assert(spark.sql("SELECT * FROM stream_partial").count() == 0)
    } finally query.stop()
  }
}
