package repro

import org.apache.spark.sql.DataFrame
import repro.baselines.GraphCtx
import repro.core.{Modularity, Peeler, SparkDMCS}
import repro.eval.{Metrics, QueryGen}
import repro.graph.{GraphFrames, GraphGen, GroundTruthGraph, LocalGraph}
import scala.collection.mutable

/** The members of the program that the benchmark harness (dmcsbench/, which
  * compiles src/main/scala with its own sources) calls, made here with the
  * harness's argument shapes, so that tier-1 fails where that build would.
  */
// change these members only in a change to the benchmark
class BenchSurfaceSpec extends SparkSpec {

  private val karate = GraphGen.karate
  private val g: LocalGraph = LocalGraph.fromEdges(karate.graph.n, karate.graph.edges.toVector)

  for (q <- Seq(Seq(0), Seq(0, 33))) {
    val qName = q.mkString("Q={", ",", "}")

    test(s"LocalGraph calls of the benchmark's checks and replay, $qName") {
      assert(g.n == 34 && g.m == 78 && g.edges.size == 78)
      val comp: mutable.BitSet = g.componentOf(q.head)
      assert(comp.size == 34)
      val prot = mutable.BitSet.empty ++= q
      val parents: Array[Int] = g.bfsParents(q.head, comp)
      for (v0 <- q) {
        var v = parents(v0)
        while (v != -1 && !prot.contains(v)) { prot += v; v = parents(v) }
      }
      assert(parents(q.head) == -1 && prot.size >= q.size)
      val dist: Array[Int] = g.bfsDist(prot, comp)
      assert(prot.forall(dist(_) == 0) && comp.iterator.map(dist(_)).max > 0)
      val cuts: mutable.BitSet = g.articulationPoints(comp)
      assert(cuts.contains(0)) // node 11's only neighbour
      assert(g.isConnected(comp) && !g.isConnected(mutable.BitSet(11, 33)))
      assert(g.edgeCount(comp) == 78 && g.degreeSum(comp) == 156)
    }

    test(s"Peeler engines and Result fields the benchmark reads, $qName") {
      val results: Seq[Peeler.Result] = Seq(
        Peeler.fpa(g, q), Peeler.fpaNoPrune(g, q), Peeler.nca(g, q),
        Peeler.run(g, q, Peeler.FarthestLayer, Peeler.DMGain, layerPrune = false))
      for (r <- results) {
        assert(r.ok, r.note)
        val members = mutable.BitSet.empty ++= r.community
        assert(q.forall(members) && g.isConnected(members))
        val dm = Modularity.dm(g.edgeCount(members), g.degreeSum(members), members.size.toLong, g.m)
        assert(math.abs(dm - r.score) < 1e-9)
        assert(r.removed == g.n - members.size)
      }
    }

    test(s"SparkDMCS.fpa over GraphFrames.edgeDF and its Result fields, $qName") {
      val edges: DataFrame = GraphFrames.edgeDF(spark, g).cache()
      try {
        val r: SparkDMCS.Result = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
        val local = Peeler.fpa(g, q)
        assert(r.ok, r.note)
        assert(r.community.map(_.toInt) == local.community)
        assert(math.abs(r.dm - local.score) < 1e-9)
        assert(0 <= r.chosenLayer && r.chosenLayer <= r.maxLayer)
      } finally edges.unpersist()
    }
  }

  test("fixture calls of the benchmark: LFR, GraphCtx, QueryGen and Metrics.nmi") {
    val generated: GroundTruthGraph = GraphGen.lfr(1000, 20.0, 200, 0.4, 20, 1000, 7)
    val lg = LocalGraph.fromEdges(1000, generated.graph.edges.toVector)
    val gt = generated.copy(graph = lg)
    val ctx = new GraphCtx(lg)
    ctx.truss
    assert(gt.graph.n == 1000 && gt.graph.m == generated.graph.m && gt.communities.size > 1)
    val qs: Seq[(Seq[Int], Set[Int])] = QueryGen.querySets(gt, ctx, 2, 2, 7L * 1000003L + 2)
    assert(qs.nonEmpty)
    for ((q, own) <- qs) {
      val holding = gt.communities.filter(c => q.forall(c.contains))
      val truth = if (holding.nonEmpty) holding else IndexedSeq(own)
      val nmi = truth.map(t => Metrics.nmi(gt.graph.n, Peeler.fpa(gt.graph, q).community, t)).max
      assert(nmi >= 0.0 && nmi <= 1.0 + 1e-9)
    }
  }
}
