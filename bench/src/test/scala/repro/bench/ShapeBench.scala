package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.GraphCtx
import repro.core.Peeler
import repro.eval.{Experiments, Metrics, QueryGen}
import repro.graph.GraphGen

/** The paper's shapes behind Table 2 and Figs 8/9, 12 and 13, asserted on
  * full-scale LFR graphs.
  */
class ShapeBench extends AnyFunSuite {

  test("Table 2: realized mixing tracks the requested mu") {
    for (mu <- Seq(0.2, 0.4)) {
      val gt = GraphGen.lfr(3000, 40, 200, mu, 20, 1000, seed = 7)
      var ext = 0L
      gt.graph.edges.foreach { case (u, v) => if (gt.labels(u) != gt.labels(v)) ext += 1 }
      val realMu = ext.toDouble / gt.graph.m
      assert(math.abs(realMu - mu) < 0.12, s"mu=$mu real=$realMu")
    }
  }

  test("shape: FPA beats the parameterized models on the default setting") {
    val gt = GraphGen.lfr(3000, 40, 200, 0.4, 20, 1000, seed = 42)
    val ctx = new GraphCtx(gt.graph)
    val qs = QueryGen.querySets(gt, ctx, 5, 2, seed = 1)
    val rows = Experiments.evaluate(gt, ctx, Experiments.coreAlgos(includeNca = false), qs)
    val byName = rows.map(r => r.algo -> r).toMap
    // paper: kc/kecc/highcore return large low-accuracy communities; FPA is
    // the most accurate together with huang2015
    assert(byName("FPA").medNmi > byName("kc").medNmi, byName.toString)
    assert(byName("FPA").medNmi > byName("kecc").medNmi)
    assert(byName("kc").meanSize > 10 * byName("FPA").meanSize)
  }

  test("shape: CM-selected communities are much larger than DM-selected") {
    val gt = GraphGen.lfr(3000, 40, 200, 0.4, 20, 1000, seed = 45)
    val ctx = new GraphCtx(gt.graph)
    val qs = QueryGen.querySets(gt, ctx, 5, 2, seed = 2)
    val dmSize = Metrics.mean(qs.map { case (q, _) =>
      Peeler.fpaNoPrune(gt.graph, q).community.size.toDouble })
    val cmSize = Metrics.mean(qs.map { case (q, _) =>
      Peeler.fpaNoPrune(gt.graph, q, Peeler.CmObjective).community.size.toDouble })
    assert(cmSize > 2 * dmSize, s"cm=$cmSize dm=$dmSize (paper: 18x)")
  }

  test("shape: pruning is faster") {
    val gt = GraphGen.lfr(3000, 40, 200, 0.4, 20, 1000, seed = 46)
    val ctx = new GraphCtx(gt.graph)
    val qs = QueryGen.querySets(gt, ctx, 5, 2, seed = 3)
    val Seq(tp, tn) =
      Experiments.evaluate(gt, ctx, Seq(Experiments.fpa, Experiments.fpaNoPrune), qs).map(_.meanMs)
    println(f"pruning: ${tp}%.1f ms vs no-pruning: ${tn}%.1f ms (paper: up to 300x)")
    assert(tp < tn, s"pruned=$tp noprune=$tn")
  }
}
