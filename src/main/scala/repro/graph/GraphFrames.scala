package repro.graph

import java.util.Arrays.binarySearch
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** Graph primitives of the distributed DMCS pipeline, over an RDD of
  * symmetric edges (`symmetrize`).
  *
  * Edge-sized data stays in that RDD. Node-sized state (a BFS frontier, the
  * reached ids with their distances, a chosen prefix) is kept on the driver
  * and reaches the tasks as broadcast sorted `Long` arrays, which each task
  * probes by binary search. Every primitive is one Spark job with one stage.
  */
object GraphFrames {

  /** Canonical (src < dst) edge DataFrame from a LocalGraph. */
  def edgeDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val es = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq
    spark.createDataset(es).toDF("src", "dst")
  }

  /** Both directions of each undirected edge of a (`src`, `dst`) DataFrame of
    * integral ids, normalised as `LocalGraph.fromEdges` normalises: self-loops
    * are dropped, and an edge given more than once or in both orientations
    * is kept once. So |E| is half the count.
    */
  def symmetrize(edges: DataFrame): RDD[(Long, Long)] =
    edges.select(col("src").cast("long"), col("dst").cast("long")).rdd
      .flatMap { r =>
        val u = r.getLong(0); val v = r.getLong(1)
        if (u == v) None else Some(if (u < v) (u, v) else (v, u))
      }
      .distinct()
      .flatMap { case (u, v) => Iterator((u, v), (v, u)) }

  /** A BFS from a source set. `layers(d)` holds the ids at distance d,
    * sorted; `parent` maps every reached node to its smallest-id neighbour one
    * layer closer (the rule of `LocalGraph.bfsParents`), and a source to -1.
    */
  final case class Bfs(layers: IndexedSeq[Array[Long]], parent: collection.Map[Long, Long]) {
    /** The reached ids, sorted, and the distance of each. */
    lazy val (ids, dist): (Array[Long], Array[Int]) = {
      val byId = layers.iterator.zipWithIndex.flatMap { case (l, d) => l.iterator.map(_ -> d) }
        .toArray.sortBy(_._1)
      (byId.map(_._1), byId.map(_._2))
    }
  }

  /** Multi-source BFS over symmetric edges, one job per layer. Each task
    * keeps, for every neighbour of the frontier that lies in neither the
    * frontier nor the layer before it, its smallest frontier neighbour; in an
    * undirected BFS that leaves exactly the next layer. The driver merges the
    * tasks' minima, so a node's parent is chosen over its whole previous
    * layer and is final once the node is reached.
    *
    * Without `targets` the BFS runs until the frontier is empty, which reaches
    * the sources' component(s). With `targets` it stops after the layer that
    * holds the last of them, or runs to the end when some target is not
    * reached: the caller checks `parent` for each.
    */
  def bfsDist(sym: RDD[(Long, Long)], sources: Seq[Long], targets: Seq[Long] = Nil): Bfs = {
    val parent = mutable.LongMap.empty[Long]
    sources.foreach(parent(_) = -1L)
    val layers = mutable.ArrayBuffer(parent.keys.toArray.sorted)
    val missing = (mutable.Set.empty[Long] ++= targets) --= sources
    var frontier = layers.head
    var prev = Array.emptyLongArray
    while (frontier.nonEmpty && (targets.isEmpty || missing.nonEmpty)) {
      val next = mutable.LongMap.empty[Long]
      for ((v, p) <- bfsStep(sym, frontier, prev)) if (p < next.getOrElse(v, Long.MaxValue)) next(v) = p
      next.foreachEntry { (v, p) => parent(v) = p; missing -= v }
      prev = frontier
      frontier = next.keys.toArray.sorted
      if (frontier.nonEmpty) layers += frontier
    }
    Bfs(layers.toIndexedSeq, parent)
  }

  /** One BFS layer: (node, smallest frontier neighbour) pairs for the
    * neighbours of `frontier` outside `frontier` and `prev`, one pair per
    * node and task.
    */
  private def bfsStep(sym: RDD[(Long, Long)], frontier: Array[Long], prev: Array[Long]): Array[(Long, Long)] = {
    val f = sym.sparkContext.broadcast(frontier)
    val p = sym.sparkContext.broadcast(prev)
    try sym.mapPartitions { it =>
      val fv = f.value; val pv = p.value
      val best = mutable.LongMap.empty[Long]
      it.foreach { case (u, v) =>
        if (binarySearch(fv, u) >= 0 && u < best.getOrElse(v, Long.MaxValue) &&
            binarySearch(fv, v) < 0 && binarySearch(pv, v) < 0) best(v) = u
      }
      best.iterator
    }.collect()
    finally { f.destroy(); p.destroy() }
  }

  /** Per layer of a BFS that ran to the end: the sum of global degrees, and
    * the edges whose farther endpoint lies in the layer (an edge within a
    * layer counts once). The node counts are the layer sizes. One job.
    */
  def layerStats(sym: RDD[(Long, Long)], bfs: Bfs): (Array[Long], Array[Long]) = {
    val nLayers = bfs.layers.length
    val table = sym.sparkContext.broadcast((bfs.ids, bfs.dist))
    val parts = try sym.mapPartitions { it =>
      val (ids, dist) = table.value
      val sumDeg, nEdges = new Array[Long](nLayers)
      it.foreach { case (u, v) =>
        val i = binarySearch(ids, u)
        if (i >= 0) {
          val du = dist(i); sumDeg(du) += 1
          val j = binarySearch(ids, v)
          if (j >= 0 && (dist(j) < du || (dist(j) == du && v < u))) nEdges(du) += 1
        }
      }
      Iterator.single((sumDeg, nEdges))
    }.collect()
    finally table.destroy()
    (Array.tabulate(nLayers)(d => parts.map(_._1(d)).sum), Array.tabulate(nLayers)(d => parts.map(_._2(d)).sum))
  }

  /** The subgraph induced by the sorted ids `nodes`: the global degree of each
    * node, and the induced edges as (i, j) positions in `nodes` with i < j.
    * One job, which collects only the induced edges.
    */
  def induced(sym: RDD[(Long, Long)], nodes: Array[Long]): (Array[Int], Array[(Int, Int)]) = {
    val b = sym.sparkContext.broadcast(nodes)
    val parts = try sym.mapPartitions { it =>
      val ns = b.value
      val deg = new Array[Int](ns.length)
      val es = mutable.ArrayBuffer.empty[(Int, Int)]
      it.foreach { case (u, v) =>
        val i = binarySearch(ns, u)
        if (i >= 0) {
          deg(i) += 1
          if (u < v) { val j = binarySearch(ns, v); if (j >= 0) es += ((i, j)) }
        }
      }
      Iterator.single((deg, es.toArray))
    }.collect()
    finally b.destroy()
    (Array.tabulate(nodes.length)(i => parts.map(_._1(i)).sum), parts.flatMap(_._2))
  }
}
