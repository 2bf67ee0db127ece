package dmcsbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Modularity, Peeler}
import repro.graph.LocalGraph
import scala.collection.mutable

class ChecksSpec extends AnyFunSuite {
  // Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3.
  private val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
  private def dm(c: Set[Int]): Double = Modularity.dmOf(g, mutable.BitSet.empty ++= c)

  test("a connected answer holding Q with its own DM passes") {
    val c = Set(0, 1, 2)
    assert(Checks.check(g, Seq(0), c, dm(c)).isEmpty)
  }

  test("FPA's answer passes") {
    val r = Peeler.fpa(g, Seq(0))
    assert(Checks.check(g, Seq(0), r.community, r.score).isEmpty)
  }

  test("a disconnected answer is rejected") {
    val c = Set(0, 1, 4, 5)
    assert(Checks.check(g, Seq(0), c, dm(c)).exists(_.contains("disconnected")))
  }

  test("a wrong DM is rejected") {
    val c = Set(0, 1, 2)
    assert(Checks.check(g, Seq(0), c, dm(c) + 1e-6).exists(_.contains("DM")))
    assert(Checks.check(g, Seq(0), c, Double.NaN).exists(_.contains("DM")))
  }

  test("an answer missing a query node or empty is rejected") {
    val c = Set(0, 1, 2)
    assert(Checks.check(g, Seq(3), c, dm(c)).exists(_.contains("query")))
    assert(Checks.check(g, Seq(0), Set.empty, 0.0).contains("empty answer"))
  }

  test("the digest depends on the answers and their order, not on set order") {
    val a = Seq(Set(3, 1, 2), Set(5, 4))
    assert(Checks.digest(a) == Checks.digest(Seq(Set(1, 2, 3), Set(4, 5))))
    assert(Checks.digest(a) != Checks.digest(a.reverse))
    assert(Checks.digest(a) != Checks.digest(Seq(Set(1, 2, 3), Set(4, 5, 6))))
    assert(Checks.digest(Seq(Set(1), Set(2, 3))) != Checks.digest(Seq(Set(1, 2), Set(3))))
  }
}
