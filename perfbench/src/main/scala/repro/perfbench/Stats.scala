package repro.perfbench

/** Order statistics for timings. A tail percentile is only reported when at
  * least `MinBeyond` samples lie beyond it, so a single outlier can never be
  * the reported tail.
  */
object Stats {

  val MinBeyond: Int = 10

  /** Number of samples strictly beyond the nearest-rank `p`-th percentile of
    * `n` samples.
    */
  def samplesBeyond(n: Int, p: Double): Int = n - rank(n, p)

  /** 1-based nearest rank of the `p`-th percentile of `n` samples. */
  private def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p * n / 100.0 - 1e-9).toInt)

  /** Smallest sample count that leaves `MinBeyond` samples beyond `p`. */
  def minSamples(p: Double): Int = Iterator.from(1).find(samplesBeyond(_, p) >= MinBeyond).get

  /** Nearest-rank percentile. Refuses a tail (p > 50) that fewer than
    * `MinBeyond` samples lie beyond.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    require(p <= 50 || samplesBeyond(xs.size, p) >= MinBeyond,
      s"p$p needs ${minSamples(p)} samples, got ${xs.size}")
    val s = xs.sorted
    s(rank(s.size, p) - 1)
  }

  /** The highest of the usual tail percentiles that `n` samples support. */
  def tailPercentile(n: Int): Option[Double] =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0).find(samplesBeyond(n, _) >= MinBeyond)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
