package repro.perfbench

import repro.core.{QuantizedWordSpace, Series}

/** Driver-side timings of the `repro.core` kernels over workload data, and
  * the pruning power of each word space's lower bound.
  */
object Kernels {

  /** Sink that keeps the JIT from removing the timed calls. */
  @volatile var sink: Double = 0.0

  /** Median over `reps` of the per-call time in ns of `body(i)`, i in [0, n). */
  def timeNs(n: Int, reps: Int = 7)(body: Int => Double): Double = {
    val per = (0 until reps).map { _ =>
      var acc = 0.0
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { acc += body(i); i += 1 }
      val dt = System.nanoTime() - t0
      sink += acc
      dt.toDouble / n
    }
    Stats.median(per)
  }

  /** Kernel timings, in the units their metric names carry.
    *  - `raw`: un-normalized data series; `zs`: the same, z-normalized
    *  - `qzs`: z-normalized queries with their true k-th distance `kth`
    *  - `spaces`: engine name, word space, and the words of `zs` in it
    */
  def timings(raw: Array[Array[Float]], zs: Array[Array[Float]], qzs: Array[Array[Float]],
              kth: Array[Double], spaces: Seq[(String, QuantizedWordSpace, Array[Array[Int]])])
      : Seq[(String, Double)] = {
    val n = raw.length
    val nq = qzs.length
    def q(i: Int) = qzs(i % nq)
    def kthSq(i: Int) = { val d = kth(i % nq); d * d }
    val base = Seq(
      "core.znorm_us" -> timeNs(n)(i => Series.znorm(raw(i))(0)) / 1e3,
      "core.ed_ns" -> timeNs(n)(i => Series.edSq(q(i), zs(i))),
      "core.ed_ea_ns" -> timeNs(n)(i => Series.edSqEarlyAbandon(q(i), zs(i), kthSq(i))),
    )
    val perSpace = spaces.flatMap { case (eng, space, words) =>
      val qps = qzs.map(space.project)
      Seq(
        s"$eng.project_us" -> timeNs(n)(i => space.project(zs(i))(0)) / 1e3,
        s"$eng.lbd_word_ns" -> timeNs(n)(i => space.wordLbSq(qps(i % nq), words(i), kthSq(i))),
      )
    }
    base ++ perSpace
  }

  /** Share of (query, series) pairs whose word LBD is below the query's true
    * k-th distance: the EDs no GEMINI search over this word space can skip.
    */
  def survivorFrac(words: Array[Array[Int]], qps: Array[Array[Double]], kth: Array[Double],
                   space: QuantizedWordSpace, threads: Int): Double = {
    val counts = new Array[Long](qps.length)
    Exactness.parallel(qps.length, threads) { qi =>
      val bsfSq = kth(qi) * kth(qi)
      var c = 0L
      var i = 0
      while (i < words.length) {
        if (space.wordLbSq(qps(qi), words(i), Double.PositiveInfinity) < bsfSq) c += 1
        i += 1
      }
      counts(qi) = c
    }
    counts.sum.toDouble / (qps.length.toLong * words.length)
  }
}
