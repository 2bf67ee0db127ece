package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphFrames, LocalGraph}
import scala.collection.mutable

/** Distributed FPA (the `distributed_dataflow` reproduction target).
  *
  * Stage 1 (Spark): the edges are normalised into adjacency blocks, one per
  * partition, with one DataFrame shuffle, and the blocks are cached for the
  * call. For |Q|>1 a BFS from min(Q), stopped after the layer of the farthest
  * query, gives the parents of the protected paths linking Q; then a
  * multi-source BFS from the protected set, one job per layer, which counts
  * each layer's degree and edge sums as it expands it. Their distance
  * prefixes are scored by `Peeler.bestPrefix` (Section 5.7's layer pruning).
  * The graph-sized work runs in Spark tasks; the driver holds only node-sized
  * state, so it scales to edge sets that do not fit one machine.
  *
  * Stage 2 (driver): the chosen prefix subgraph — a tiny fraction of the
  * graph after pruning — is collected with the global degrees of its nodes
  * and handed to `Peeler.peel`, which peels its outermost layer exactly as
  * local FPA does. DM is still scored against the *full* graph's |E|.
  *
  * Tests assert this returns exactly the community of `Peeler.fpa`, for
  * every |Q|, and that a call leaves no cached RDD behind.
  */
object SparkDMCS {

  final case class Result(community: Set[Long], dm: Double, chosenLayer: Int,
                          maxLayer: Int, ok: Boolean, note: String = "")

  /** Run distributed FPA over a (`src`, `dst`) edge DataFrame; self-loops,
    * duplicates and both orientations of an edge are accepted and normalised
    * as `LocalGraph.fromEdges` does.
    */
  def fpa(spark: SparkSession, edges: DataFrame, queries: Seq[Long]): Result = {
    require(queries.nonEmpty, "need at least one query node")
    val qs = queries.distinct.sorted // rooted at min(Q), as `Peeler.run` is

    val adj = GraphFrames.adjacency(edges).cache()
    try {
      val mE = GraphFrames.edgeCount(adj)

      // --- multi-query: protect the BFS-tree paths linking Q (Section 5.6) ---
      val prot: Seq[Long] =
        if (qs.length == 1) qs
        else {
          val parent = GraphFrames.bfsDist(adj, Seq(qs.head), qs.tail).parent
          if (!qs.forall(parent.contains))
            return Result(qs.toSet, Double.NaN, -1, -1, ok = false,
              "query nodes are not in the same connected component")
          Peeler.protectPaths(qs, parent).toSeq
        }

      // --- distance BFS, which counts the layer stats, + prefix choice -------
      val bfs = GraphFrames.bfsDist(adj, prot)
      val bestT = Peeler.bestPrefix(bfs.layers.map(_.length.toLong).toArray, bfs.sumDeg, bfs.nEdges,
        mE, Peeler.DmObjective)

      // --- collect the pruned prefix subgraph and peel its outer layer ------
      val keep = bfs.dist.indices.filter(i => bfs.dist(i) <= bestT)
      val ids = keep.map(bfs.ids).toArray
      val distOf = keep.map(bfs.dist).toArray
      val (degOf, subEdges) = GraphFrames.induced(adj, ids)
      val sub = LocalGraph.fromEdges(ids.length, subEdges)
      val protIdx = mutable.BitSet.empty ++= prot.map(java.util.Arrays.binarySearch(ids, _))
      val res = Peeler.peel(sub, degOf, mE, protIdx, Array.range(0, ids.length), distOf,
        Peeler.FarthestLayer, Peeler.DensityRatio, Peeler.DmObjective, prefix = bestT)
      Result(res.community.map(i => ids(i)), res.score, bestT, bfs.layers.length - 1, ok = true)
    } finally adj.unpersist()
  }
}
