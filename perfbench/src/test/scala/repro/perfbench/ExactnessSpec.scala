package repro.perfbench

import scala.util.{Failure, Success}

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Series

class ExactnessSpec extends AnyFunSuite {

  private val rng = new java.util.Random(7)
  private def series(n: Int) = Series.znorm(Array.fill(n)(rng.nextGaussian().toFloat))
  private val data = Array.fill(300)(series(32))
  private val queries = Array.fill(12)(series(32))
  private val k = 5
  private val ref = Exactness.reference(data, queries, k, threads = 2)

  /** The reference's own answer, as an engine would return it. */
  private def exact(qi: Int): Array[(Long, Double)] = ref.ids(qi).zip(ref.dists(qi))

  test("the reference is the sorted brute-force top-k") {
    queries.indices.foreach { qi =>
      val all = data.indices.map(i => (i.toLong, math.sqrt(Series.edSq(queries(qi), data(i)))))
        .sortBy { case (id, d) => (d, id) }.take(k)
      assert(exact(qi).toSeq == all)
    }
  }

  test("failed_frac is 0 for exact engines and rises when one engine's list is corrupted") {
    def run(corrupt: Boolean): Exactness.Gate = {
      val gate = new Exactness.Gate(ref, k)
      queries.indices.foreach { qi =>
        Seq("sofa", "messi", "ucr").foreach(e => gate.record(e, qi, Success(exact(qi))))
        val faiss = exact(qi).clone()
        if (corrupt && qi % 3 == 0) faiss(k - 1) = (faiss(k - 1)._1, faiss(k - 1)._2 * 1.01)
        gate.record("faiss", qi, Success(faiss))
      }
      gate
    }
    assert(run(corrupt = false).failedFrac == 0.0)
    val bad = run(corrupt = true)
    assert(bad.failed("faiss") == 4)
    assert(bad.failedFrac == 4.0 / (4 * queries.length))
  }

  test("short answers and thrown calls fail; distances within tolerance pass") {
    val qi = 0
    assert(Exactness.check(exact(qi).take(k - 1), ref, qi, k).failed)
    val nudged = exact(qi).map { case (id, d) => (id, d * (1 + 0.5 * Exactness.RelTol)) }
    assert(!Exactness.check(nudged, ref, qi, k).failed)
    val gate = new Exactness.Gate(ref, k)
    gate.record("ucr", qi, Failure(new RuntimeException("boom")))
    assert(gate.failedFrac == 1.0)
  }

  test("another id at a tied distance is counted, not failed") {
    val qi = 1
    val swapped = exact(qi).clone()
    swapped(2) = (Long.MaxValue, swapped(2)._2)
    val v = Exactness.check(swapped, ref, qi, k)
    assert(!v.failed && v.tieIdMismatch == 1)
    val gate = new Exactness.Gate(ref, k)
    gate.record("messi", qi, Success(swapped))
    assert(gate.ties("messi") == 1 && gate.failedFrac == 0.0)
  }
}
