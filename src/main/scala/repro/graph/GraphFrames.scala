package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame/Catalyst graph primitives used by the distributed DMCS pipeline.
  *
  * Conventions: an edge DataFrame has columns (`src`, `dst`) with `src < dst`
  * (canonical undirected form); `symmetrize` yields both directions.
  */
object GraphFrames {

  /** Canonical (src < dst) edge DataFrame from a LocalGraph. */
  def edgeDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val es = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq
    spark.createDataset(es).toDF("src", "dst")
  }

  /** Both directions of each undirected edge: columns (src, dst). */
  def symmetrize(edges: DataFrame): DataFrame =
    edges.select(col("src"), col("dst"))
      .union(edges.select(col("dst").as("src"), col("src").as("dst")))

  /** Node degrees: columns (node, deg). Isolated nodes are absent. */
  def degrees(edges: DataFrame): DataFrame =
    symmetrize(edges).groupBy(col("src").as("node")).agg(count(lit(1)).as("deg"))

  /** Multi-source unweighted BFS. Returns (node, dist, parent) for *reached*
    * nodes only — i.e. the connected component(s) of the sources. The parent
    * is the smallest-id neighbour one layer closer (the rule of
    * `LocalGraph.bfsParents`); it is -1 for a source.
    *
    * Implemented as iterative frontier expansion with DataFrame joins until
    * the frontier is empty; `localCheckpoint` truncates lineage each round
    * (diameters are small for social networks, per the paper's Fig 4
    * observation).
    */
  def bfsDist(spark: SparkSession, edges: DataFrame, sources: Seq[Long]): DataFrame = {
    import spark.implicits._
    val sym = symmetrize(edges).cache()
    var visited = spark.createDataset(sources.distinct.map(s => (s, 0, -1L)))
      .toDF("node", "dist", "parent").cache()
    var frontier = visited
    var d = 0
    var done = false
    while (!done) {
      d += 1
      val next = sym.join(frontier, sym("src") === frontier("node"))
        .groupBy(sym("dst").as("node")).agg(min(sym("src")).as("parent"))
        .join(visited, Seq("node"), "left_anti")
        .select(col("node"), lit(d).as("dist"), col("parent"))
        .localCheckpoint()
      if (next.isEmpty) done = true
      else {
        visited = visited.union(next).localCheckpoint()
        frontier = next
      }
    }
    sym.unpersist()
    visited
  }

  /** Per-node layer stats for prefix-DM scoring: one row per distance layer
    * with the node count and the sum of *global* degrees of that layer.
    * Columns: (dist, nNodes, sumDeg).
    */
  def nodeLayerStats(dist: DataFrame, degs: DataFrame): DataFrame =
    dist.join(degs, Seq("node"))
      .groupBy(col("dist"))
      .agg(count(lit(1)).as("nNodes"), sum(col("deg")).as("sumDeg"))

  /** Per-layer internal edge counts: an edge belongs to layer
    * max(dist(src), dist(dst)); only edges with both endpoints reached count.
    * Columns: (dist, nEdges).
    */
  def edgeLayerStats(edges: DataFrame, dist: DataFrame): DataFrame = {
    val ds = dist.select(col("node").as("src"), col("dist").as("distSrc"))
    val dd = dist.select(col("node").as("dst"), col("dist").as("distDst"))
    edges.join(ds, Seq("src")).join(dd, Seq("dst"))
      .select(greatest(col("distSrc"), col("distDst")).as("dist"))
      .groupBy(col("dist"))
      .agg(count(lit(1)).as("nEdges"))
  }
}
