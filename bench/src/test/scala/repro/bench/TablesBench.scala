package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Every evaluation table at full scale, one test per `Experiments.tables`
  * entry, named after it: `bench/testOnly repro.bench.TablesBench -- -z fig11`
  * prints Fig 11 alone.
  */
class TablesBench extends SparkSpec {

  /** Strings each printed table must contain. */
  private val expected: Map[String, Seq[String]] = Map(
    "table1" -> Seq("karate", "78"),
    "table2" -> Seq("davg=50", "dmax=500"),
    "fig8-9" -> Seq("FPA", "NCA"),
    "fig10" -> Seq("|Q|=8"),
    "fig11" -> Seq("100000"),
    "fig12" -> Seq("size ratio"),
    "fig13" -> Seq("FPA-noprune"),
    "fig14" -> Seq("NCA-DR", "FPA-DMG"),
    "fig15-16" -> Seq("karate", "polblogs-standin", "GN"),
    "fig17-18" -> Seq("dblp-lite", "livejournal-lite"),
    "fig19" -> Seq("kc(k=7)"),
    "case-study" -> Seq("3-core"))

  for (table <- Experiments.tables) test(table.name) {
    val t = table.run(() => spark)
    println(t)
    expected(table.name).foreach(s => assert(t.contains(s), s))
  }
}
