package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One traced interval. Times are epoch milliseconds (fractional for spans the
  * benchmark records itself, whole for Spark's job and task events). Spans of
  * one engine call share the root's id through their parent links.
  */
final case class Span(id: String, parent: Option[String], name: String,
                      startMs: Double, endMs: Double,
                      attrs: Map[String, Double] = Map.empty) {
  def lengthMs: Double = endMs - startMs
}

object Trace {

  /** Self time: the span's length minus the part of its interval that the
    * union of its children covers (children may overlap each other and may
    * stick out of the parent; only the covered part inside counts).
    */
  def selfTimeMs(span: Span, children: Seq[Span]): Double = {
    val clipped = children
      .map(c => (math.max(c.startMs, span.startMs), math.min(c.endMs, span.endMs)))
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0.0
    var curS = Double.NaN; var curE = Double.NaN
    clipped.foreach { case (s, e) =>
      if (curE.isNaN || s > curE) {
        if (!curE.isNaN) covered += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curE.isNaN) covered += curE - curS
    span.lengthMs - covered
  }

  /** Wall clock in epoch milliseconds with nanosecond resolution. */
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  def nowMs: Double = (System.nanoTime() + offsetNs) / 1e6
}

/** Collects root spans from the benchmark and job/task spans from Spark's
  * public listener events. A root span's id is set as the Spark job group on
  * the calling thread, so every job the call submits carries it. Everything
  * stays in memory until `spans` is read at the end of the run.
  */
final class Tracer(sc: SparkContext) extends SparkListener {

  import Tracer.{Job, Task}

  private val roots = new ConcurrentLinkedQueue[Span]()
  private val jobs = new ConcurrentLinkedQueue[Job]()
  private val jobEnds = new java.util.concurrent.ConcurrentHashMap[Int, Long]()
  private val tasks = new ConcurrentLinkedQueue[Task]()
  private val nextId = new AtomicLong()
  @volatile private var sentinelJob = -1
  @volatile private var sentinelSeen = false

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    if (group.contains(Tracer.Sentinel)) sentinelJob = e.jobId
    else jobs.add(Job(e.jobId, group, e.time, e.stageIds))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    jobEnds.put(e.jobId, e.time)
    if (e.jobId == sentinelJob) sentinelSeen = true
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = Option(e.taskMetrics)
    tasks.add(Task(e.taskInfo.taskId, e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
      m.map(_.executorRunTime).getOrElse(0L), m.map(_.jvmGCTime).getOrElse(0L),
      m.map(_.resultSize).getOrElse(0L)))
  }

  /** Run `body` as a root span named `name`; its Spark jobs become children. */
  def span[T](name: String, attrs: Map[String, Double] = Map.empty)(body: => T): T = {
    val id = s"r${nextId.incrementAndGet()}"
    sc.setJobGroup(id, name, interruptOnCancel = false)
    val t0 = Trace.nowMs
    try body
    finally {
      val t1 = Trace.nowMs
      sc.clearJobGroup()
      roots.add(Span(id, None, name, t0, t1, attrs))
    }
  }

  /** Wait until the listener has seen every event posted so far: a marker job
    * is submitted last, and the bus delivers events in order.
    */
  def drain(timeoutMs: Long = 30000): Unit = {
    sentinelSeen = false
    sc.setJobGroup(Tracer.Sentinel, Tracer.Sentinel, interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!sentinelSeen && System.currentTimeMillis() < deadline) Thread.sleep(5)
    require(sentinelSeen, "Spark listener events did not arrive in time")
  }

  /** Every span: roots, then their jobs, then the jobs' tasks. */
  def spans: Seq[Span] = {
    val rootIds = roots.asScala.map(_.id).toSet
    val js = jobs.asScala.toSeq.filter(_.group.exists(rootIds))
    val stageToJob = js.flatMap(j => j.stageIds.map(_ -> j.id)).toMap
    val jobSpans = js.map { j =>
      Span(s"j${j.id}", j.group, "job", j.startMs.toDouble,
           jobEnds.getOrDefault(j.id, j.startMs).toDouble)
    }
    val taskSpans = tasks.asScala.toSeq.flatMap { t =>
      stageToJob.get(t.stageId).map { jid =>
        Span(s"t${t.id}", Some(s"j$jid"), "task",
             t.launchMs.toDouble, t.finishMs.toDouble,
             Map("run_ms" -> t.runMs.toDouble, "gc_ms" -> t.gcMs.toDouble,
                 "result_bytes" -> t.resultBytes.toDouble))
      }
    }
    roots.asScala.toSeq ++ jobSpans ++ taskSpans
  }
}

object Tracer {
  val Sentinel = "perfbench-drain"

  private final case class Job(id: Int, group: Option[String], startMs: Long, stageIds: Seq[Int])
  private final case class Task(id: Long, stageId: Int, launchMs: Long, finishMs: Long,
                                runMs: Long, gcMs: Long, resultBytes: Long)
}

/** Per-query Spark and driver figures of one engine's traced calls. */
final case class CallProfile(
    driverMs: Double, jobsPerQuery: Double, schedMs: Double, resultKb: Double,
    gcMs: Double, taskRunMs: Double, taskMaxMs: Double, skew: Double)

object CallProfile {

  /** Aggregate the root spans named `rootName` and their job/task children.
    * Each root carries its query count in the `queries` attribute.
    */
  def of(all: Seq[Span], rootName: String): CallProfile = {
    val roots = all.filter(s => s.parent.isEmpty && s.name == rootName)
    val children = all.filter(_.parent.nonEmpty).groupBy(_.parent.get)
    val queries = math.max(1.0, roots.map(_.attrs.getOrElse("queries", 1.0)).sum)
    val jobs = roots.flatMap(r => children.getOrElse(r.id, Nil))
    val driver = roots.map(r => Trace.selfTimeMs(r, children.getOrElse(r.id, Nil))).sum
    var sched = 0.0; var result = 0.0; var gc = 0.0; var run = 0.0
    var maxSum = 0.0; var meanSum = 0.0
    jobs.foreach { j =>
      val ts = children.getOrElse(j.id, Nil)
      val runs = ts.map(_.attrs("run_ms"))
      sched += j.lengthMs - (if (ts.isEmpty) 0.0 else ts.map(_.lengthMs).max)
      result += ts.map(_.attrs("result_bytes")).sum / 1024.0
      gc += ts.map(_.attrs("gc_ms")).sum
      run += runs.sum
      if (runs.nonEmpty) { maxSum += runs.max; meanSum += runs.sum / runs.size }
    }
    CallProfile(
      driverMs = driver / queries,
      jobsPerQuery = jobs.size / queries,
      schedMs = sched / queries,
      resultKb = result / queries,
      gcMs = gc / queries,
      taskRunMs = run / queries,
      taskMaxMs = maxSum / queries,
      skew = if (meanSum > 0) maxSum / meanSum else 1.0,
    )
  }
}
