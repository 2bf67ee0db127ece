package repro.core

import repro.SparkSpec
import repro.baselines.GraphCtx
import repro.eval.QueryGen
import repro.graph.{GraphFrames, GraphGen, LocalGraph}
import scala.collection.mutable

/** The distributed pipeline must return exactly the community of the local
  * layer-pruned FPA for every |Q| (same protected paths, same prefix
  * selection, same peel, same tie-breaks).
  */
class SparkDMCSSpec extends SparkSpec {

  /** None when both engines agree, else what differs. */
  private def mismatch(g: LocalGraph, q: Seq[Int]): Option[String] = {
    val edges = GraphFrames.edgeDF(spark, g)
    val local = Peeler.fpa(g, q)
    val dist = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
    val same = dist.ok == local.ok && (!local.ok ||
      dist.community.map(_.toInt) == local.community && math.abs(dist.dm - local.score) < 1e-12)
    if (same) None
    else Some(s"q=$q spark=${dist.community.toSeq.sorted} (dm ${dist.dm}) " +
      s"local=${local.community.toSeq.sorted} (dm ${local.score})")
  }
  private def assertEquivalent(g: LocalGraph, q: Seq[Int]): Unit =
    mismatch(g, q).foreach(m => fail(m))

  test("karate: SparkDMCS == local FPA (hub query)") {
    assertEquivalent(GraphGen.karate.graph, Seq(0))
  }
  test("karate: SparkDMCS == local FPA (officer hub)") {
    assertEquivalent(GraphGen.karate.graph, Seq(33))
  }
  test("karate: SparkDMCS == local FPA (peripheral query)") {
    assertEquivalent(GraphGen.karate.graph, Seq(16))
  }
  test("ring of cliques: SparkDMCS finds the 6-clique") {
    val g = GraphGen.ringOfCliques(10, 6)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, g), Seq(14L))
    assert(r.ok && r.community == (12 until 18).map(_.toLong).toSet)
  }

  for (seed <- 1 to 6) {
    test(s"LFR seed=$seed: SparkDMCS == local FPA") {
      val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed)
      val ctx = new GraphCtx(gt.graph)
      val diffs = for {
        k <- Seq(1, 2, 4, 8)
        (q, _) <- QueryGen.querySets(gt, ctx, 2, k, seed * 10 + k)
        m <- mismatch(gt.graph, q)
      } yield s"|Q|=$k $m"
      assert(diffs.isEmpty, diffs.mkString("\n"))
    }
  }

  test("multi-query: community contains all queries and is connected") {
    val gt = GraphGen.lfr(250, 10, 40, 0.3, 20, 60, seed = 9)
    val comm = gt.communities.maxBy(_.size).toSeq.sorted
    val q = comm.take(3)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, gt.graph), q.map(_.toLong))
    assert(r.ok)
    assert(q.forall(v => r.community.contains(v.toLong)))
    val bits = mutable.BitSet.empty
    r.community.foreach(v => bits += v.toInt)
    assert(gt.graph.isConnected(bits))
  }

  test("isolated query: SparkDMCS == local FPA") {
    // node 4 has no edges, so no degrees row; both engines return {4}
    assertEquivalent(LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3))), Seq(4))
  }

  test("queries in different components fail gracefully") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, g), Seq(0L, 3L))
    assert(!r.ok)
  }

  test("reported chosenLayer is within [0, maxLayer]") {
    val gt = GraphGen.lfr(250, 10, 40, 0.3, 20, 60, seed = 4)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, gt.graph), Seq(0L))
    assert(r.ok && r.chosenLayer >= 0 && r.chosenLayer <= r.maxLayer)
  }
}
