package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: String, parent: Option[String], s: Double, e: Double,
                   name: String = "x", attrs: Map[String, Double] = Map.empty) =
    Span(id, parent, name, s, e, attrs)

  test("self time subtracts the union of the children, clipped to the parent") {
    val root = span("r", None, 0, 100)
    val kids = Seq(
      span("a", Some("r"), 10, 30),
      span("b", Some("r"), 20, 40),   // overlaps a: [10, 40] counted once
      span("c", Some("r"), 90, 120),  // sticks out: only [90, 100] counts
      span("d", Some("r"), 150, 160), // outside the parent: ignored
    )
    assert(Trace.selfTimeMs(root, kids) == 60.0)
    assert(Trace.selfTimeMs(root, Nil) == 100.0)
    assert(Trace.selfTimeMs(root, Seq(span("all", Some("r"), -5, 105))) == 0.0)
  }

  test("call profile aggregates a hand-built root/job/task tree per query") {
    def task(id: String, job: String, s: Double, e: Double, run: Double) =
      span(id, Some(job), s, e, "task", Map("run_ms" -> run, "gc_ms" -> 1.0, "result_bytes" -> 2048.0))
    val spans = Seq(
      // one searchBatch call of 2 queries with two jobs
      span("r1", None, 0, 100, "sofa.searchBatch", Map("queries" -> 2.0)),
      span("j1", Some("r1"), 10, 40, "job"),
      task("t1", "j1", 12, 32, 20), task("t2", "j1", 12, 22, 10),
      span("j2", Some("r1"), 50, 90, "job"),
      task("t3", "j2", 52, 82, 30), task("t4", "j2", 52, 62, 10),
      // another engine's call: must not be counted
      span("r2", None, 0, 10, "ucr.searchBatch", Map("queries" -> 2.0)),
    )
    val p = CallProfile.of(spans, "sofa.searchBatch")
    assert(p.jobsPerQuery == 1.0)
    assert(p.driverMs == (100 - 30 - 40) / 2.0)
    assert(p.schedMs == ((30 - 20) + (40 - 30)) / 2.0)
    assert(p.taskRunMs == 70 / 2.0)
    assert(p.taskMaxMs == (20 + 30) / 2.0)
    assert(p.skew == (20.0 + 30.0) / (15.0 + 20.0))
    assert(p.gcMs == 2.0)
    assert(p.resultKb == 4.0)
  }
}
