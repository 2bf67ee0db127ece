package dmcsbench

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer

class StatsSpec extends AnyFunSuite {
  private def samples(k: Int): Seq[Double] = (1 to k).map(_.toDouble)

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("p90 is kept only with at least 10 samples beyond it") {
    assert(Stats.percentile(samples(99), 0.9).isEmpty) // rank 90, 9 beyond
    assert(Stats.percentile(samples(100), 0.9).contains(90.0)) // rank 90, 10 beyond
    assert(Stats.percentile(samples(1000), 0.9).contains(900.0))
  }

  test("the median itself needs 10 samples beyond it to count as a percentile") {
    assert(Stats.percentile(samples(19), 0.5).isEmpty)
    assert(Stats.percentile(samples(20), 0.5).contains(10.0))
    assert(Stats.percentile(Seq.empty, 0.5).isEmpty)
  }

  test("p99 needs 1000 samples") {
    assert(Stats.percentile(samples(999), 0.99).isEmpty)
    assert(Stats.percentile(samples(1000), 0.99).contains(990.0))
  }

  test("a phase's rate is the median over blocks of completions") {
    def phase(endsS: Double*) = Phase(ArrayBuffer.empty, 0, 0L, endsS.map(s => (s * 1e9).toLong))
    assert(phase(1, 2, 3, 10).rate(1) == 1.0) // one slow second does not move it
    assert(phase(1, 2, 3, 10).blockRates(2) == Seq(2 / 2.0, 2 / 8.0))
    assert(phase(1, 2).rate(4) == 1.0) // shorter than a block: one block
  }
}
