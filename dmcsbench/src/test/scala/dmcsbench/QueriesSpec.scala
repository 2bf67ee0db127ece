package dmcsbench

import org.scalatest.funsuite.AnyFunSuite

class QueriesSpec extends AnyFunSuite {
  private def fixture(seed: Long) = Fixture.build(300, Seq(1, 2, 4), 60, seed)

  test("the same seed gives the same graph and query list") {
    val a = fixture(7); val b = fixture(7)
    assert(a.g.edges.toSeq == b.g.edges.toSeq)
    assert(a.queries.map(q => (q.nodes, q.truth)) == b.queries.map(q => (q.nodes, q.truth)))
  }

  test("another seed gives other queries") {
    assert(fixture(7).queries.map(_.nodes) != fixture(8).queries.map(_.nodes))
  }

  test("query sets are distinct and |Q| cycles through the sizes in order") {
    val qs = fixture(7).queries
    assert(qs.nonEmpty)
    assert(qs.map(_.nodes).distinct.length == qs.length)
    assert(qs.map(_.nodes.size) == qs.indices.map(i => Seq(1, 2, 4)(i % 3)))
    qs.foreach(q => assert(q.nodes.distinct.length == q.nodes.length))
  }

  test("several graphs alternate, one seed each, and one graph keeps the seed") {
    val (fxs, qs, _) = Fixture.buildMany(300, Seq(2), 30, seed = 5, graphs = 2)
    assert(fxs.map(_.g.edges.toSeq) == Seq(fixture(10), fixture(11)).map(_.g.edges.toSeq))
    assert(qs.nonEmpty && qs.indices.forall(i => qs(i).g eq fxs(i % 2).g))
    val (one, _, _) = Fixture.buildMany(300, Seq(2), 30, seed = 5, graphs = 1)
    assert(one.head.g.edges.toSeq == fixture(5).g.edges.toSeq)
  }

  test("each query is scored against communities that hold all of it, when there are some") {
    val fx = fixture(7)
    fx.queries.foreach { q =>
      val holding = fx.gt.communities.filter(c => q.nodes.forall(c.contains))
      if (holding.nonEmpty) assert(q.truth == holding)
      else assert(q.truth.length == 1)
    }
  }
}
