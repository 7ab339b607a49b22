package repro.rpbench

import java.nio.file.Path
import scala.collection.parallel.CollectionConverters._

/** Writes the reference detections of every workload: each pool series run
  * through the workload's detectors, on all cores. Run it only when the
  * detected periods are meant to change, and say why in the commit.
  */
object Record {

  def run(referenceDir: Path): Unit = Main.Workloads.foreach { w =>
    val t0   = System.nanoTime()
    val rows = w.pools.flatMap(p => (0 until p.size).map(p.gen)).par
      .flatMap(s => w.detections(s).map { case (algo, periods) => (s, algo, periods) }).seq
    val header = s"${w.name}: pools ${w.pools.map(p => s"${p.name}[${p.size}]").mkString(", ")}"
    Corpus.writeReference(referenceDir.resolve(s"${w.name}.tsv"), header, rows)
    println(f"${w.name}: ${rows.size} detections recorded in ${(System.nanoTime() - t0) / 1e9}%.1f s")
  }
}
