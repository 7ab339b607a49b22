package repro.rpbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.{AtomicInteger, DoubleAdder}
import scala.jdk.CollectionConverters._

/** One recorded interval around a call into the program. `arg` carries the
  * MODWT level for per-level stages and the Spark partition for detector
  * spans (0 otherwise); `allocBytes` is what the calling thread allocated
  * inside the span.
  */
final case class Span(id: Int, parent: Int, name: String, series: Long, arg: Int,
                      thread: Long, startNs: Long, endNs: Long, allocBytes: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are kept until the run ends and then
  * written out in one go; nesting comes from a per-thread parent stack, so
  * Spark tasks running in local mode record into the same store.
  */
object Trace {

  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val store  = new ConcurrentLinkedQueue[Span]()
  private val nextId = new AtomicInteger(1)
  private val stack  = ThreadLocal.withInitial[List[Int]](() => Nil)
  private val counts = new ConcurrentHashMap[String, DoubleAdder]()

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def allocatedBytes(threadIds: Array[Long]): Array[Long] = threads.getThreadAllocatedBytes(threadIds)

  def span[A](name: String, series: Long, arg: Int = 0)(body: => A): A = {
    val id     = nextId.getAndIncrement()
    val parent = stack.get.headOption.getOrElse(0)
    stack.set(id :: stack.get)
    val a0 = allocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val a1 = allocatedBytes()
      stack.set(stack.get.tail)
      store.add(Span(id, parent, name, series, arg, Thread.currentThread.getId, t0, t1, a1 - a0))
    }
  }

  /** Adds `delta` to the named counter (work done at a span boundary). */
  def count(name: String, delta: Double): Unit =
    counts.computeIfAbsent(name, _ => new DoubleAdder).add(delta)

  def counter(name: String): Double = Option(counts.get(name)).map(_.sum).getOrElse(0.0)

  def spans: Seq[Span] = store.asScala.toSeq.sortBy(_.id)

  def clear(): Unit = { store.clear(); counts.clear() }

  /** Span duration minus the part covered by its direct children. */
  def selfNs(all: Seq[Span]): Map[Int, Long] = {
    val childNs = all.groupMapReduce(_.parent)(_.durNs)(_ + _)
    all.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  def write(path: java.nio.file.Path, all: Seq[Span]): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("id\tparent\tname\tseries\targ\tthread\tstart_ns\tend_ns\talloc_bytes\n")
      all.foreach { s =>
        w.write(s"${s.id}\t${s.parent}\t${s.name}\t${s.series}\t${s.arg}\t${s.thread}\t" +
          s"${s.startNs}\t${s.endNs}\t${s.allocBytes}\n")
      }
    } finally w.close()
  }
}
