package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{GraphFrames, LocalGraph}
import scala.collection.mutable

/** Distributed FPA (the `distributed_dataflow` reproduction target).
  *
  * Stage 1 (Spark/Catalyst): for |Q|>1 a BFS from q0 whose parent column
  * gives the protected paths linking Q; then a multi-source BFS from the
  * protected set over the edge DataFrame; per-layer node/edge aggregates
  * whose distance prefixes are scored by `Peeler.bestPrefix` (Section 5.7's
  * layer pruning) — the graph-sized work is DataFrame dataflow, so it scales
  * to graphs that do not fit one machine.
  *
  * Stage 2 (driver): the chosen prefix subgraph — a tiny fraction of the
  * graph after pruning — is collected with its distances and handed to
  * `Peeler.peel`, which peels its outermost layer exactly as local FPA does.
  * DM is still scored against the *full* graph's |E| and degrees.
  *
  * Tests assert this returns exactly the community of `Peeler.fpa`, for
  * every |Q|.
  */
object SparkDMCS {

  final case class Result(community: Set[Long], dm: Double, chosenLayer: Int,
                          maxLayer: Int, ok: Boolean, note: String = "")

  /** Run distributed FPA over a canonical (src<dst) edge DataFrame. */
  def fpa(spark: SparkSession, edges: DataFrame, queries: Seq[Long]): Result = {
    require(queries.nonEmpty, "need at least one query node")

    val e = edges.select(col("src").cast("long"), col("dst").cast("long")).cache()
    val mE = e.count()
    val degs = GraphFrames.degrees(e).cache()

    // --- multi-query: protect the BFS-tree paths linking Q (Section 5.6) ---
    val prot: Seq[Long] =
      if (queries.length == 1) queries
      else {
        val parents = GraphFrames.bfsDist(spark, e, Seq(queries.head)).collect()
          .map(r => r.getAs[Long]("node") -> r.getAs[Long]("parent")).toMap
        if (!queries.forall(parents.contains)) {
          e.unpersist(); degs.unpersist()
          return Result(queries.toSet, Double.NaN, -1, -1, ok = false,
            "query nodes are not in the same connected component")
        }
        Peeler.protectPaths(queries, parents).toSeq
      }
    val dist = GraphFrames.bfsDist(spark, e, prot).cache()

    // --- layer aggregates (pure dataflow) + prefix choice ------------------
    val nodeStats = GraphFrames.nodeLayerStats(dist, degs)
    val edgeStats = GraphFrames.edgeLayerStats(e, dist)
    val layerRows = nodeStats.join(edgeStats, Seq("dist"), "left_outer")
      .select(col("dist"), col("nNodes"), col("sumDeg"),
        coalesce(col("nEdges"), lit(0L)).as("nEdges"))
      .orderBy(col("dist"))
      .collect()
    if (layerRows.isEmpty) {
      // the query has no edges, so no `degrees` row: its component is itself
      e.unpersist(); degs.unpersist(); dist.unpersist()
      return Result(queries.toSet, Modularity.dm(0, 0, 1, mE), 0, 0, ok = true)
    }
    val maxLayer = layerRows.map(_.getAs[Int]("dist")).max
    def perLayer(c: String): Array[Long] = {
      val a = new Array[Long](maxLayer + 1)
      layerRows.foreach(r => a(r.getAs[Int]("dist")) = r.getAs[Long](c))
      a
    }
    val bestT = Peeler.bestPrefix(perLayer("nNodes"), perLayer("sumDeg"), perLayer("nEdges"),
      mE, Peeler.DmObjective)

    // --- collect the pruned prefix subgraph and peel its outer layer ------
    val keep = dist.filter(col("dist") <= bestT).cache()
    val nodeRows = keep.join(degs, Seq("node"))
      .select(col("node"), col("dist"), col("deg")).collect()
    val ids = nodeRows.map(_.getAs[Long]("node")).sorted
    val idOf = ids.zipWithIndex.toMap
    val degOf = new Array[Int](ids.length)
    val distOf = new Array[Int](ids.length)
    nodeRows.foreach { r =>
      val i = idOf(r.getAs[Long]("node"))
      degOf(i) = r.getAs[Long]("deg").toInt
      distOf(i) = r.getAs[Int]("dist")
    }

    val ks = keep.select(col("node").as("src"))
    val kd = keep.select(col("node").as("dst"))
    val subEdges = e.join(ks, Seq("src"), "left_semi").join(kd, Seq("dst"), "left_semi")
      .select(col("src"), col("dst")).collect()
      .map(r => (idOf(r.getAs[Long]("src")), idOf(r.getAs[Long]("dst"))))

    val sub = LocalGraph.fromEdges(ids.length, subEdges.toSeq)
    val res = Peeler.peel(sub, degOf, mE, mutable.BitSet.empty ++= prot.map(idOf),
      Array.range(0, ids.length), distOf, Peeler.FarthestLayer, Peeler.DensityRatio, Peeler.DmObjective, prefix = bestT)

    e.unpersist(); degs.unpersist(); dist.unpersist(); keep.unpersist()
    Result(res.community.map(i => ids(i)), res.score, bestT, maxLayer, ok = true)
  }
}
