package repro.graph

import java.util.Arrays.{binarySearch, copyOf, sort}
import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, greatest, least}
import org.apache.spark.sql.types.LongType
import scala.collection.mutable

/** Graph primitives of the distributed DMCS pipeline, over adjacency blocks:
  * one `Block` of sorted primitive arrays per partition (`adjacency`).
  *
  * Edge-sized data stays in the blocks. Node-sized state (a BFS frontier, the
  * layer before it, a chosen prefix) is kept on the driver as sorted `Long`
  * arrays, which travel inside each task. A task looks these ids up in its
  * block and scans only their rows, so a step costs the rows of the ids it
  * is given, not a pass over every edge. Building the blocks takes one
  * shuffle; every primitive over them is one Spark job with one stage.
  */
object GraphFrames {

  /** Canonical (src < dst) edge DataFrame from a LocalGraph. The edges go
    * out as one broadcast, and each partition reads its slice of them: the
    * plan then holds no rows for Catalyst to walk, and a task over this
    * DataFrame, or over its cache, carries no edges.
    */
  def edgeDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    val es = sc.broadcast(g.edges.toArray.unzip)
    val p = sc.defaultParallelism
    sc.parallelize(0 until p, p).flatMap { i =>
      val (src, dst) = es.value
      def at(j: Int) = (src.length.toLong * j / p).toInt
      (at(i) until at(i + 1)).map(e => (src(e).toLong, dst(e).toLong))
    }.toDF("src", "dst")
  }

  /** One partition's share of the graph: for each of the sorted distinct
    * `ids`, its sorted distinct neighbours `nbr(off(i) until off(i + 1))`
    * over this partition's edges. Each edge lies in exactly one block, in the
    * rows of both endpoints, so a node's degree is the sum of its row lengths
    * over the blocks.
    */
  final case class Block(ids: Array[Long], off: Array[Int], nbr: Array[Long]) {

    /** `f(k, i)` for each id `xs(k)` of the sorted `xs` that has a row `i`
      * here; each search starts where the last one ended.
      */
    def foreachRow(xs: Array[Long])(f: (Int, Int) => Unit): Unit = {
      var i = 0; var k = 0
      while (k < xs.length && i < ids.length) {
        i = binarySearch(ids, i, ids.length, xs(k))
        if (i >= 0) { f(k, i); i += 1 } else i = -i - 1
        k += 1
      }
    }
  }

  /** The adjacency blocks of a (`src`, `dst`) DataFrame of integral ids,
    * normalised as `LocalGraph.fromEdges` normalises: self-loops are dropped,
    * and an edge given more than once or in both orientations is kept once.
    * Each edge is written as (least, greatest) and hash-partitioned on both,
    * so all copies of an edge meet in one partition: one DataFrame shuffle,
    * which runs when this is called. The blocks are built when the result is
    * first computed; the caller caches it.
    */
  def adjacency(edges: DataFrame): RDD[Block] = {
    val (a, b) = (col("src").cast(LongType), col("dst").cast(LongType))
    edges.select(least(a, b).as("u"), greatest(a, b).as("v")).where(col("u") =!= col("v"))
      .repartition(edges.sparkSession.sparkContext.defaultParallelism, col("u"), col("v"))
      .rdd.mapPartitions(rows => Iterator.single(block(rows)))
  }

  /** The block of one partition's (u, v) rows, duplicates included. */
  private def block(rows: Iterator[Row]): Block = {
    val us, vs = mutable.ArrayBuilder.make[Long]
    rows.foreach { r => us += r.getLong(0); vs += r.getLong(1) }
    val (u, v) = (us.result(), vs.result())
    val all = u ++ v
    sort(all)
    val ids = copyOf(all, dropRepeats(all, 0, all.length, 0))
    val (pu, pv) = (u.map(binarySearch(ids, _)), v.map(binarySearch(ids, _)))
    // the rows with their repeats, by counting sort on the endpoint's position
    val start = new Array[Int](ids.length + 1)
    pu.foreach(i => start(i + 1) += 1); pv.foreach(i => start(i + 1) += 1)
    for (i <- ids.indices) start(i + 1) += start(i)
    val fill = start.clone()
    val nbr = new Array[Long](all.length)
    for (e <- u.indices) {
      nbr(fill(pu(e))) = v(e); fill(pu(e)) += 1
      nbr(fill(pv(e))) = u(e); fill(pv(e)) += 1
    }
    val off = new Array[Int](ids.length + 1)
    for (i <- ids.indices) {
      sort(nbr, start(i), start(i + 1))
      off(i + 1) = dropRepeats(nbr, start(i), start(i + 1), off(i))
    }
    Block(ids, off, copyOf(nbr, off(ids.length)))
  }

  /** Copies the sorted `xs(from until until)` without repeats to `xs` from
    * `to` <= `from`, and returns where the copy ends.
    */
  private def dropRepeats(xs: Array[Long], from: Int, until: Int, to: Int): Int = {
    var w = to
    for (e <- from until until if e == from || xs(e) != xs(e - 1)) { xs(w) = xs(e); w += 1 }
    w
  }

  /** A function of one partition's block, which `SparkContext.runJob` runs as
    * a job's task. It is a named class rather than a lambda: Spark's closure
    * cleaner lets a named class pass, but for a lambda it loads and parses the
    * class file that defines it, and `collect` adds two lambdas of its own.
    * At one job per BFS layer, that parsing was most of the driver's CPU time.
    */
  private abstract class BlockTask[U] extends ((TaskContext, Iterator[Block]) => U) with Serializable {
    def of(b: Block): U
    final def apply(ctx: TaskContext, blocks: Iterator[Block]): U = {
      val b = blocks.next()
      // reaching the end of a cached partition releases its read lock
      assert(!blocks.hasNext, "one block per partition")
      of(b)
    }
  }

  private object RowLength extends BlockTask[Long] {
    def of(b: Block): Long = b.nbr.length.toLong
  }

  /** |E| of the blocks' graph: half the total row length. One job. */
  def edgeCount(adj: RDD[Block]): Long = adj.sparkContext.runJob(adj, RowLength).sum / 2

  /** A BFS from a source set. `layers(d)` holds the ids at distance d,
    * sorted; `parent` maps every reached node to its smallest-id neighbour one
    * layer closer (the rule of `LocalGraph.bfsParents`), and a source to -1.
    * `sumDeg(d)` is the sum of the global degrees of layer d, and `nEdges(d)`
    * counts the edges whose farther endpoint lies in layer d (an edge within a
    * layer once), as `LocalGraph.bfsLayers` counts them. Both have an entry
    * per expanded layer: every layer when the BFS ran to the end, all but the
    * last when it stopped at its targets.
    */
  final case class Bfs(layers: IndexedSeq[Array[Long]], parent: collection.Map[Long, Long],
                       sumDeg: Array[Long], nEdges: Array[Long]) {
    /** The reached ids, sorted, and the distance of each. */
    lazy val (ids, dist): (Array[Long], Array[Int]) = {
      val byId = layers.iterator.zipWithIndex.flatMap { case (l, d) => l.iterator.map(_ -> d) }
        .toArray.sortBy(_._1)
      (byId.map(_._1), byId.map(_._2))
    }
  }

  /** Multi-source BFS, one job per layer. Each task scans the rows of the
    * frontier in its block: it counts the layer's degree sum and its edges
    * back to the previous layer or within the layer, and keeps, for every
    * neighbour in neither, its smallest frontier neighbour; in an undirected
    * BFS those neighbours are exactly the next layer. The driver merges the
    * tasks' minima, so a node's parent is chosen over its whole previous
    * layer and is final once the node is reached.
    *
    * Without `targets` the BFS runs until the frontier is empty, which reaches
    * the sources' component(s). With `targets` it stops after the layer that
    * holds the last of them, or runs to the end when some target is not
    * reached: the caller checks `parent` for each.
    */
  def bfsDist(adj: RDD[Block], sources: Seq[Long], targets: Seq[Long] = Nil): Bfs = {
    val parent = mutable.LongMap.empty[Long]
    sources.foreach(parent(_) = -1L)
    val layers = mutable.ArrayBuffer(parent.keys.toArray.sorted)
    val sumDeg, nEdges = mutable.ArrayBuilder.make[Long]
    val missing = (mutable.Set.empty[Long] ++= targets) --= sources
    var frontier = layers.head
    var prev = Array.emptyLongArray
    while (frontier.nonEmpty && (targets.isEmpty || missing.nonEmpty)) {
      val steps = bfsStep(adj, frontier, prev)
      sumDeg += steps.map(_.sumDeg).sum
      nEdges += steps.map(_.nEdges).sum
      val next = mutable.LongMap.empty[Long]
      for (s <- steps; j <- s.next.indices)
        if (s.from(j) < next.getOrElse(s.next(j), Long.MaxValue)) next(s.next(j)) = s.from(j)
      next.foreachEntry { (v, p) => parent(v) = p; missing -= v }
      prev = frontier
      frontier = next.keys.toArray.sorted
      if (frontier.nonEmpty) layers += frontier
    }
    Bfs(layers.toIndexedSeq, parent, sumDeg.result(), nEdges.result())
  }

  /** One block's part of a BFS step: the next-layer nodes `next` it reaches,
    * each with its smallest frontier neighbour `from`, and the frontier's
    * degree sum and back-plus-within edges in this block.
    */
  private final case class Step(next: Array[Long], from: Array[Long], sumDeg: Long, nEdges: Long)

  private def bfsStep(adj: RDD[Block], frontier: Array[Long], prev: Array[Long]): Array[Step] =
    adj.sparkContext.runJob(adj, new StepTask(frontier, prev))

  private final class StepTask(frontier: Array[Long], prev: Array[Long]) extends BlockTask[Step] {
    def of(b: Block): Step = {
      // the frontier is visited in increasing order, so a node's first
      // frontier neighbour is its smallest one
      val best = mutable.LongMap.empty[Long]
      var sumDeg, nEdges = 0L
      b.foreachRow(frontier) { (k, i) =>
        val u = frontier(k)
        sumDeg += b.off(i + 1) - b.off(i)
        for (e <- b.off(i) until b.off(i + 1)) {
          val w = b.nbr(e)
          if (binarySearch(prev, w) >= 0) nEdges += 1
          else if (binarySearch(frontier, w) >= 0) { if (w < u) nEdges += 1 }
          else best.getOrElseUpdate(w, u)
        }
      }
      val (next, from) = (new Array[Long](best.size), new Array[Long](best.size))
      var j = 0
      best.foreachEntry { (v, p) => next(j) = v; from(j) = p; j += 1 }
      Step(next, from, sumDeg, nEdges)
    }
  }

  /** The subgraph induced by the sorted ids `nodes`: the global degree of each
    * node, and the induced edges as (i, j) positions in `nodes` with i < j.
    * One job, which scans only the rows of `nodes` and collects only the
    * induced edges.
    */
  def induced(adj: RDD[Block], nodes: Array[Long]): (Array[Int], Array[(Int, Int)]) = {
    val parts = adj.map { b =>
      val deg = new Array[Int](nodes.length)
      val es = mutable.ArrayBuffer.empty[(Int, Int)]
      b.foreachRow(nodes) { (i, r) =>
        deg(i) = b.off(r + 1) - b.off(r)
        for (e <- b.off(r) until b.off(r + 1) if nodes(i) < b.nbr(e)) {
          val j = binarySearch(nodes, b.nbr(e))
          if (j >= 0) es += ((i, j))
        }
      }
      (deg, es.toArray)
    }.collect()
    (Array.tabulate(nodes.length)(i => parts.map(_._1(i)).sum), parts.flatMap(_._2))
  }
}
