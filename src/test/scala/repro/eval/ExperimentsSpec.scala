package repro.eval

import repro.SparkSpec

/** Smoke-scale integration runs of every experiment harness (the bench
  * suites run them at full scale; here we only assert they produce sane
  * tables on tiny inputs).
  */
class ExperimentsSpec extends SparkSpec {

  test("table1 lists every dataset with paper numbers") {
    val t = Experiments.table1(scale = 0.1)
    assert(t.contains("karate") && t.contains("dblp-lite"))
    assert(t.contains("1049866")) // paper's DBLP |E|
  }

  test("table2 reports realized LFR statistics") {
    val t = Experiments.table2(n = 400)
    assert(t.contains("davg=20") && t.contains("mu=0.4"))
  }

  test("synthetic sweep produces one row per (setting, algo)") {
    val t = Experiments.syntheticSweep(n = 300, nQuerySets = 2, qSize = 1, seed = 2)
    assert(t.contains("FPA") && t.contains("kc") && t.contains("mu=0.2"))
    assert(t.contains("huang2015"))
  }

  test("query-size sweep runs") {
    val t = Experiments.querySetSize(n = 300, sizes = Seq(1, 2), nQuerySets = 2)
    assert(t.contains("|Q|=1") && t.contains("|Q|=2"))
  }

  test("modularity measures comparison runs") {
    val t = Experiments.modularityMeasures(n = 300, nQuerySets = 3)
    assert(t.contains("FPA-DM") && t.contains("FPA-CM") && t.contains("FPA-GMD"))
    assert(t.contains("size ratio"))
  }

  test("pruning comparison runs") {
    val t = Experiments.pruning(n = 300, nQuerySets = 3)
    assert(t.contains("FPA-noprune"))
  }

  test("variants comparison runs") {
    val t = Experiments.variants(n = 300, nQuerySets = 2)
    assert(t.contains("NCA-DR") && t.contains("FPA-DMG"))
  }

  test("vary-k runs") {
    val t = Experiments.varyK(scale = 0.12, ks = Seq(3, 4), nQuerySets = 2)
    assert(t.contains("kc(k=3)") && t.contains("kt(k=4)"))
  }

  test("case study reports community stats for FPA/3-truss/3-core") {
    val t = Experiments.caseStudy(scale = 0.12)
    assert(t.contains("FPA") && t.contains("3-truss") && t.contains("3-core"))
  }

  test("scalability harness runs at toy scale (includes SparkDMCS)") {
    val t = Experiments.scalability(spark, sizes = Seq(400), ncaUpTo = 400)
    assert(t.contains("FPA(spark)"))
  }

  test("evaluate makes one untimed call before timing each query set") {
    val gt = repro.graph.GraphGen.karate
    val ctx = new repro.baselines.GraphCtx(gt.graph)
    var calls = 0
    val counting = Experiments.Algo("counting", (_, q) => { calls += 1; Some(q.toSet) })
    val querySets = Seq(0, 33).map(v => (Seq(v), gt.communities.find(_.contains(v)).get))
    val rows = Experiments.evaluate(gt, ctx, Seq(counting), querySets)
    assert(calls == 3 && rows.head.fails == 0)
  }

  test("evaluate counts failures") {
    val gt = repro.graph.GraphGen.karate
    val ctx = new repro.baselines.GraphCtx(gt.graph)
    val failing = Experiments.Algo("never", (_, _) => None)
    val rows = Experiments.evaluate(gt, ctx, Seq(failing),
      Seq((Seq(0), gt.communities(0))))
    assert(rows.head.fails == 1 && rows.head.medNmi == 0.0)
  }
}
