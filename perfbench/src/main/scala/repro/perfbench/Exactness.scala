package repro.perfbench

import java.util.concurrent.{Executors, TimeUnit}

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import repro.core.Series

/** Brute-force k-NN reference and the exactness gate every timed engine call
  * passes through. The reference uses only `Series.edSq` over z-normalized
  * series and is computed before any timing starts.
  */
object Exactness {

  /** Allowed deviation of a distance from the reference at the same rank,
    * relative to max(1, reference distance).
    */
  val RelTol: Double = 1e-4

  /** Top-k of every query, ordered by (distance, id). */
  final case class Reference(ids: Array[Array[Long]], dists: Array[Array[Double]]) {
    def kthDist(qi: Int, k: Int): Double = dists(qi)(math.min(k, dists(qi).length) - 1)
  }

  /** Exact top-`k` of each z-normalized query over the z-normalized `data`
    * (ids are positions), on `threads` threads.
    */
  def reference(data: Array[Array[Float]], queries: Array[Array[Float]], k: Int,
                threads: Int): Reference = {
    val ids = new Array[Array[Long]](queries.length)
    val dists = new Array[Array[Double]](queries.length)
    parallel(queries.length, threads) { qi =>
      val (i, d) = topK(data, queries(qi), k)
      ids(qi) = i; dists(qi) = d
    }
    Reference(ids, dists)
  }

  private def topK(data: Array[Array[Float]], qz: Array[Float], k: Int)
      : (Array[Long], Array[Double]) = {
    val kk = math.min(k, data.length)
    // sorted ascending by (dSq, id); insertion keeps the first kk
    val bestD = Array.fill(kk)(Double.PositiveInfinity)
    val bestI = Array.fill(kk)(Long.MaxValue)
    var i = 0
    while (i < data.length) {
      val d = Series.edSq(qz, data(i))
      if (d < bestD(kk - 1)) { // ids ascend, so an equal distance never displaces
        var j = kk - 1
        while (j > 0 && bestD(j - 1) > d) { bestD(j) = bestD(j - 1); bestI(j) = bestI(j - 1); j -= 1 }
        bestD(j) = d; bestI(j) = i.toLong
      }
      i += 1
    }
    (bestI, bestD.map(math.sqrt))
  }

  /** Outcome of one engine answer: whether it fails the gate, and how many
    * ranks hold another id than the reference at an equal distance (a tie).
    */
  final case class Verdict(failed: Boolean, tieIdMismatch: Int)

  /** An answer fails when it is shorter than min(k, N) or any rank's distance
    * is off by more than `RelTol`. Ids may differ only at tied distances.
    */
  def check(answer: Array[(Long, Double)], ref: Reference, qi: Int, k: Int): Verdict = {
    val want = math.min(k, ref.dists(qi).length)
    if (answer.length < want) return Verdict(failed = true, 0)
    var ties = 0
    var r = 0
    while (r < want) {
      val (id, d) = answer(r)
      val rd = ref.dists(qi)(r)
      if (!(math.abs(d - rd) <= RelTol * math.max(1.0, rd))) return Verdict(failed = true, ties)
      if (id != ref.ids(qi)(r)) ties += 1
      r += 1
    }
    Verdict(failed = false, ties)
  }

  /** Tallies of the gate per engine over a run. An answer counts once per
    * query it answers; a call that throws fails every query it was given.
    */
  final class Gate(ref: Reference, k: Int) {
    val attempted: mutable.Map[String, Long] = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
    val failed: mutable.Map[String, Long] = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
    val ties: mutable.Map[String, Long] = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)

    def record(engine: String, qi: Int, answer: Try[Array[(Long, Double)]]): Unit = {
      attempted(engine) += 1
      answer match {
        case Success(a) =>
          val v = check(a, ref, qi, k)
          if (v.failed) failed(engine) += 1
          ties(engine) += v.tieIdMismatch
        case Failure(_) => failed(engine) += 1
      }
    }

    def totalAttempted: Long = attempted.values.sum
    def totalFailed: Long = failed.values.sum
    /** Failed over attempted, all engines; 1 when nothing was checked. */
    def failedFrac: Double =
      if (totalAttempted == 0) 1.0 else totalFailed.toDouble / totalAttempted
  }

  /** Run `body(i)` for i in [0, n) on `threads` threads and wait for all. */
  def parallel(n: Int, threads: Int)(body: Int => Unit): Unit = {
    val pool = Executors.newFixedThreadPool(math.max(1, threads))
    try {
      val futures = (0 until n).map(i => pool.submit(new Runnable { def run(): Unit = body(i) }))
      futures.foreach(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }
}
