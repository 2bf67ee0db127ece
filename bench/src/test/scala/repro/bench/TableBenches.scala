package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.GraphCtx
import repro.core.Peeler
import repro.eval.{Experiments, Metrics, QueryGen}
import repro.graph.GraphGen

/** Table 1: dataset statistics (stand-ins vs the paper's real graphs). */
class Table1DatasetsBench extends AnyFunSuite {
  test("Table 1: dataset stats") {
    val t = Experiments.table1()
    println(t)
    assert(t.contains("karate") && t.contains("78"))
  }
}

/** Table 2: realized LFR statistics for every parameter setting. */
class Table2LfrBench extends AnyFunSuite {
  test("Table 2: LFR realized statistics") {
    val t = Experiments.table2(n = 3000)
    println(t)
    assert(t.contains("davg=50") && t.contains("dmax=500"))
  }
  test("Table 2: realized mixing tracks the requested mu") {
    for (mu <- Seq(0.2, 0.4)) {
      val gt = GraphGen.lfr(3000, 40, 200, mu, 20, 1000, seed = 7)
      var ext = 0L
      gt.graph.edges.foreach { case (u, v) => if (gt.labels(u) != gt.labels(v)) ext += 1 }
      val realMu = ext.toDouble / gt.graph.m
      assert(math.abs(realMu - mu) < 0.12, s"mu=$mu real=$realMu")
    }
  }
}

/** Figs 8/9: effectiveness and efficiency on the LFR benchmark. */
class F8F9SyntheticBench extends AnyFunSuite {
  test("Figs 8/9: synthetic sweep (accuracy + time)") {
    val t = Experiments.syntheticSweep(n = 3000, nQuerySets = 5, qSize = 2, seed = 42)
    println(t)
    assert(t.contains("FPA") && t.contains("NCA"))
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
}

/** Fig 10: effect of the query-set size |Q|. */
class F10QuerySizeBench extends AnyFunSuite {
  test("Fig 10: |Q| sweep") {
    val t = Experiments.querySetSize(n = 3000, sizes = Seq(1, 2, 4, 8), nQuerySets = 5)
    println(t)
    assert(t.contains("|Q|=8"))
  }
}

/** Fig 12: density modularity vs classic modularity vs GMD inside FPA. */
class F12ModularityMeasuresBench extends AnyFunSuite {
  test("Fig 12: objective comparison") {
    val t = Experiments.modularityMeasures(n = 3000, nQuerySets = 10)
    println(t)
    assert(t.contains("size ratio"))
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
}

/** Fig 13: layer-based pruning strategy. */
class F13PruningBench extends AnyFunSuite {
  test("Fig 13: pruning vs no pruning") {
    val t = Experiments.pruning(n = 3000, nQuerySets = 10)
    println(t)
    assert(t.contains("FPA-noprune"))
  }
  test("shape: pruning is faster") {
    val gt = GraphGen.lfr(3000, 40, 200, 0.4, 20, 1000, seed = 46)
    val qs = QueryGen.querySets(gt, new GraphCtx(gt.graph), 5, 2, seed = 3)
    def time(body: => Any): Double = Experiments.timed(body)._2
    val tp = Metrics.mean(qs.map { case (q, _) => time(Peeler.fpa(gt.graph, q)) })
    val tn = Metrics.mean(qs.map { case (q, _) => time(Peeler.fpaNoPrune(gt.graph, q)) })
    println(f"pruning: ${tp}%.1f ms vs no-pruning: ${tn}%.1f ms (paper: up to 300x)")
    assert(tp < tn, s"pruned=$tp noprune=$tn")
  }
}

/** Fig 14: the four (removable-rule × goodness) variants. */
class F14VariantsBench extends AnyFunSuite {
  test("Fig 14: variants") {
    val t = Experiments.variants(n = 3000, nQuerySets = 5)
    println(t)
    assert(t.contains("NCA-DR") && t.contains("FPA-DMG"))
  }
}

/** Figs 15/16: small real-world graphs with distinct communities. */
class F15RealSmallBench extends AnyFunSuite {
  test("Figs 15/16: distinct-community graphs") {
    val t = Experiments.smallRealWorld(nQuerySets = 10)
    println(t)
    assert(t.contains("karate") && t.contains("polblogs-standin"))
    assert(t.contains("GN"))
  }
}

/** Figs 17/18: overlapping-community (lite) datasets. */
class F17RealOverlapBench extends AnyFunSuite {
  test("Figs 17/18: overlapping-community datasets") {
    val t = Experiments.overlappingRealWorld(scale = 1.0, nQuerySets = 10)
    println(t)
    assert(t.contains("dblp-lite") && t.contains("livejournal-lite"))
  }
}

/** Fig 19: the user parameter k of kc/kecc/kt. */
class F19VaryKBench extends AnyFunSuite {
  test("Fig 19: vary k") {
    val t = Experiments.varyK(scale = 1.0, ks = Seq(3, 4, 5, 6, 7), nQuerySets = 10)
    println(t)
    assert(t.contains("kc(k=7)"))
  }
}

/** Section 6.3.2 case study: hub query in a DBLP-like graph. */
class CaseStudyBench extends AnyFunSuite {
  test("case study: hub query") {
    val t = Experiments.caseStudy(scale = 1.0)
    println(t)
    assert(t.contains("3-core"))
  }
}
