package dmcsbench

import repro.baselines.GraphCtx
import repro.eval.QueryGen
import repro.graph.{GraphGen, GroundTruthGraph, LocalGraph}
import scala.collection.mutable

/** A query set on graph `g` and the ground-truth communities its answer is
  * scored against: those holding every query node, else the community it was
  * drawn from, as `Experiments.evaluate` does.
  */
final case class Query(g: LocalGraph, nodes: Seq[Int], truth: IndexedSeq[Set[Int]])

object Queries {

  /** Distinct query sets drawn by `QueryGen.querySets` (the paper's
    * protocol), `perSize` draws for each size, interleaved so that |Q|
    * cycles through `sizes` in the given order.
    */
  def generate(gt: GroundTruthGraph, ctx: GraphCtx, sizes: Seq[Int], perSize: Int,
               seed: Long): IndexedSeq[Query] = {
    val bySize = sizes.map { k =>
      QueryGen.querySets(gt, ctx, perSize, k, seed * 1000003L + k).distinctBy(_._1).toIndexedSeq
    }
    val rounds = bySize.map(_.length).min
    for (i <- 0 until rounds; s <- bySize.indices) yield {
      val (q, own) = bySize(s)(i)
      val holding = gt.communities.filter(c => q.forall(c.contains))
      Query(gt.graph, q, if (holding.nonEmpty) holding else IndexedSeq(own))
    }
  }
}

/** The inputs of one run: an LFR graph, its truss decomposition and the
  * query list, with the time each set-up phase took. The decomposition
  * (`ctx`) stays live, so `heap_mb` counts it.
  */
final class Fixture(val gt: GroundTruthGraph, val ctx: GraphCtx, val queries: IndexedSeq[Query],
                    val phaseMs: Seq[(String, Double)]) {
  def g: LocalGraph = gt.graph
}

object Fixture {

  /** LFR(n, davg=20, dmax=200, µ=0.4, minC=20, maxC=1000, seed), rebuilt
    * through `LocalGraph.fromEdges` so graph construction is timed on its own.
    */
  def build(n: Int, sizes: Seq[Int], perSize: Int, seed: Long): Fixture = {
    val phases = mutable.ArrayBuffer.empty[(String, Double)]
    def timed[A](name: String)(body: => A): A = {
      val t0 = System.nanoTime()
      val r = body
      phases += name -> (System.nanoTime() - t0) / 1e6
      r
    }
    val generated = timed("gen.lfr_ms")(GraphGen.lfr(n, 20.0, 200, 0.4, 20, 1000, seed))
    val edges = generated.graph.edges.toVector
    val g = timed("graph.build_ms")(LocalGraph.fromEdges(n, edges))
    val gt = generated.copy(graph = g)
    val ctx = new GraphCtx(g)
    timed("algos.truss_ms")(ctx.truss)
    val queries = timed("querygen.ms")(Queries.generate(gt, ctx, sizes, perSize, seed))
    new Fixture(gt, ctx, queries, phases.toSeq)
  }

  /** `graphs` fixtures, graph j seeded with seed·graphs + j (so one graph
    * keeps `seed` itself), their query lists interleaved so that query i is
    * on graph i mod graphs, and their set-up phases summed.
    */
  def buildMany(n: Int, sizes: Seq[Int], perSize: Int, seed: Long,
                graphs: Int): (IndexedSeq[Fixture], IndexedSeq[Query], Seq[(String, Double)]) = {
    val fxs = (0 until graphs).map(j => build(n, sizes, perSize, seed * graphs + j))
    val rounds = fxs.map(_.queries.length).min
    val queries = for (i <- 0 until rounds; fx <- fxs) yield fx.queries(i)
    val phases = fxs.head.phaseMs.map { case (p, _) => p -> fxs.map(_.phaseMs.toMap.apply(p)).sum }
    (fxs, queries, phases)
  }
}
