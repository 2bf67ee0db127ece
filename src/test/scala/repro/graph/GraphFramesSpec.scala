package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Every Spark aggregation used by the distributed pipeline is checked
  * against DuckDB SQL over the same inputs (repro.Oracle).
  */
class GraphFramesSpec extends SparkSpec {

  private lazy val karate = GraphGen.karate.graph
  private lazy val edges = GraphFrames.edgeDF(spark, karate).cache()

  test("edgeDF is canonical (src < dst) and complete") {
    val rows = edges.collect()
    assert(rows.length == 78)
    assert(rows.forall(r => r.getLong(0) < r.getLong(1)))
  }

  test("symmetrize doubles the edges") {
    assert(GraphFrames.symmetrize(edges).count() == 156)
  }

  test("degrees match DuckDB GROUP BY") {
    val sym = GraphFrames.symmetrize(edges)
    Oracle.assertEquivalent(
      GraphFrames.degrees(edges),
      "SELECT src AS node, COUNT(*) AS deg FROM sym GROUP BY src",
      "sym" -> sym)
  }

  test("degrees match LocalGraph degrees") {
    val d = GraphFrames.degrees(edges).collect()
      .map(r => r.getLong(0).toInt -> r.getLong(1).toInt).toMap
    (0 until karate.n).foreach(v => assert(d(v) == karate.degree(v)))
  }

  test("bfsDist matches LocalGraph BFS from a single source") {
    val got = GraphFrames.bfsDist(spark, edges, Seq(0L)).collect()
      .map(r => r.getLong(0).toInt -> (r.getInt(1), r.getLong(2).toInt)).toMap
    val want = karate.bfsDist(Seq(0))
    val parent = karate.bfsParents(0) // the same min-id parent rule
    (0 until karate.n).foreach(v => assert(got(v) == (want(v), parent(v)), s"node $v"))
  }

  test("bfsDist multi-source matches LocalGraph") {
    val got = GraphFrames.bfsDist(spark, edges, Seq(0L, 33L)).collect()
      .map(r => r.getLong(0).toInt -> r.getInt(1)).toMap
    val want = karate.bfsDist(Seq(0, 33))
    (0 until karate.n).foreach(v => assert(got(v) == want(v)))
  }

  test("bfsDist covers only the source component") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val e = GraphFrames.edgeDF(spark, g)
    val got = GraphFrames.bfsDist(spark, e, Seq(0L)).collect().map(_.getLong(0)).toSet
    assert(got == Set(0L, 1L, 2L))
  }

  test("bfsDist runs until the frontier is empty (70-node path)") {
    val g = LocalGraph.fromEdges(70, (0 until 69).map(i => (i, i + 1)))
    val rows = GraphFrames.bfsDist(spark, GraphFrames.edgeDF(spark, g), Seq(0L)).collect()
    assert(rows.length == 70)
    assert(rows.map(_.getAs[Int]("dist")).max == 69)
  }

  test("nodeLayerStats matches DuckDB") {
    val dist = GraphFrames.bfsDist(spark, edges, Seq(0L))
    val degs = GraphFrames.degrees(edges)
    Oracle.assertEquivalent(
      GraphFrames.nodeLayerStats(dist, degs)
        .select(col("dist").cast("int").as("dist"), col("nNodes"),
          col("sumDeg").cast("long").as("sumDeg")),
      """SELECT CAST(d.dist AS INT) AS dist, COUNT(*) AS nNodes,
        |       CAST(SUM(CAST(g.deg AS BIGINT)) AS BIGINT) AS sumDeg
        |FROM dist d JOIN degs g ON d.node = g.node
        |GROUP BY CAST(d.dist AS INT)""".stripMargin,
      "dist" -> dist, "degs" -> degs)
  }

  test("edgeLayerStats matches DuckDB") {
    val dist = GraphFrames.bfsDist(spark, edges, Seq(0L))
    Oracle.assertEquivalent(
      GraphFrames.edgeLayerStats(edges, dist)
        .select(col("dist").cast("int").as("dist"), col("nEdges")),
      """SELECT CAST(GREATEST(CAST(ds.dist AS INT), CAST(dd.dist AS INT)) AS INT) AS dist,
        |       COUNT(*) AS nEdges
        |FROM e JOIN dist ds ON e.src = ds.node
        |       JOIN dist dd ON e.dst = dd.node
        |GROUP BY 1""".stripMargin,
      "e" -> edges, "dist" -> dist)
  }

  test("edgeLayerStats drops edges with an unreached endpoint") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (3, 4)))
    val e = GraphFrames.edgeDF(spark, g)
    val dist = GraphFrames.bfsDist(spark, e, Seq(0L))
    val total = GraphFrames.edgeLayerStats(e, dist)
      .agg(sum(col("nEdges"))).collect()(0).getLong(0)
    assert(total == 2) // edge (3,4) excluded
  }

  test("layer edge totals equal |E| of the component") {
    val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 80, seed = 6)
    val e = GraphFrames.edgeDF(spark, gt.graph)
    val dist = GraphFrames.bfsDist(spark, e, Seq(0L))
    val comp = gt.graph.componentOf(0)
    val total = GraphFrames.edgeLayerStats(e, dist)
      .agg(sum(col("nEdges"))).collect()(0).getLong(0)
    assert(total == gt.graph.edgeCount(comp))
  }
}
