package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("p90 needs ten samples beyond it: 100 samples suffice, 99 do not") {
    assert(Stats.samplesBeyond(100, 90) == 10)
    assert(Stats.samplesBeyond(99, 90) == 9)
    assert(Stats.minSamples(90) == 100)
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 90) == 90.0) // nearest rank; 91..100 lie beyond
    intercept[IllegalArgumentException](Stats.percentile(xs.take(99), 90))
  }

  test("the reported tail is the highest percentile the sample count supports") {
    assert(Stats.tailPercentile(20).isEmpty)
    assert(Stats.tailPercentile(40).contains(75.0))
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(199).contains(90.0))
    assert(Stats.tailPercentile(200).contains(95.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
    assert(Stats.tailPercentile(10000).contains(99.9))
  }

  test("median needs no tail and averages the middle pair") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(Stats.percentile(Seq(5.0), 50) == 5.0)
  }
}
