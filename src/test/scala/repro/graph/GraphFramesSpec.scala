package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import repro.SparkSpec

/** Every Spark primitive used by the distributed pipeline is checked against
  * the `LocalGraph` kernel that computes the same thing on one machine.
  */
class GraphFramesSpec extends SparkSpec {

  private lazy val karate = GraphGen.karate.graph
  private lazy val edges = GraphFrames.edgeDF(spark, karate).cache()
  private lazy val adj = GraphFrames.adjacency(edges).cache()
  private lazy val path = LocalGraph.fromEdges(70, (0 until 69).map(i => (i, i + 1)))

  private def adjOf(g: LocalGraph) = GraphFrames.adjacency(GraphFrames.edgeDF(spark, g))

  /** The directed (node, neighbour) pairs of all blocks, after checking that
    * every block's ids and rows are sorted and distinct.
    */
  private def pairsOf(a: RDD[GraphFrames.Block]): Seq[(Long, Long)] =
    a.collect().toSeq.flatMap { b =>
      def increasing(xs: Seq[Long]) = xs.zip(xs.drop(1)).forall { case (x, y) => x < y }
      assert(increasing(b.ids.toSeq) && b.off.length == b.ids.length + 1)
      b.ids.indices.flatMap { i =>
        val row = b.nbr.slice(b.off(i), b.off(i + 1)).toSeq
        assert(row.nonEmpty && increasing(row), s"row of ${b.ids(i)}")
        row.map(b.ids(i) -> _)
      }
    }

  /** Distance and parent of every node as `LocalGraph` reports them, -1 when
    * the BFS did not reach it.
    */
  private def distParent(g: LocalGraph, bfs: GraphFrames.Bfs): Seq[(Int, Long)] = {
    val dist = bfs.ids.zip(bfs.dist).toMap
    (0 until g.n).map(v => (dist.getOrElse(v.toLong, -1), bfs.parent.getOrElse(v.toLong, -1L)))
  }
  private def assertSameBfs(g: LocalGraph, source: Int): Unit = {
    val got = distParent(g, GraphFrames.bfsDist(adjOf(g), Seq(source.toLong)))
    val want = g.bfsDist(Seq(source)).zip(g.bfsParents(source).map(_.toLong))
    (0 until g.n).foreach(v => assert(got(v) == want(v), s"node $v"))
  }

  test("edgeDF is canonical (src < dst) and complete") {
    val rows = edges.collect()
    assert(rows.length == 78)
    assert(rows.forall(r => r.getLong(0) < r.getLong(1)))
  }

  test("edgeDF's plan reads an RDD, not local rows, on an LFR graph") {
    val g = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = 2).graph
    val df = GraphFrames.edgeDF(spark, g)
    assert(df.queryExecution.analyzed.collectFirst { case r: LocalRelation => r }.isEmpty)
    val rows = df.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(rows.forall { case (u, v) => u < v })
    assert(rows.length == g.m && rows.toSet == g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSet)
  }

  test("adjacency blocks hold every edge in both rows, once") {
    val pairs = pairsOf(adj)
    assert(pairs.length == 156 && GraphFrames.edgeCount(adj) == 78)
    assert(pairs.toSet == karate.edges.flatMap { case (u, v) => Seq((u.toLong, v.toLong), (v.toLong, u.toLong)) }.toSet)
  }

  test("adjacency normalises self-loops, duplicates and both orientations") {
    import spark.implicits._
    val es = karate.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq
    // each slice is one input partition, so the copies of an edge, and its
    // self-loop neighbours, start in different partitions
    val slices = Seq(es, es.take(20).map(_.swap) ++ Seq((3L, 3L)), es.take(20) ++ Seq((7L, 7L)),
      es.take(5).map(_.swap) ++ Seq((3L, 3L), (33L, 33L)))
    val dirty = spark.sparkContext.parallelize(slices, 4).flatMap(identity).toDF("src", "dst")
    assert(dirty.rdd.getNumPartitions == 4)
    val a = GraphFrames.adjacency(dirty).cache()
    val pairs = pairsOf(a)
    assert(pairs.length == 156 && GraphFrames.edgeCount(a) == 78)
    assert(pairs.toSet == (es ++ es.map(_.swap)).toSet)
    a.unpersist()
  }

  test("degrees match LocalGraph degrees") {
    val all = Array.range(0, karate.n).map(_.toLong)
    val (deg, es) = GraphFrames.induced(adj, all)
    assert(deg.toSeq == karate.degree.toSeq)
    assert(es.toSet == karate.edges.toSet)
  }

  test("induced keeps only the edges inside the node set") {
    val nodes = Array(0L, 1L, 2L, 3L, 33L)
    val (deg, es) = GraphFrames.induced(adj, nodes)
    assert(deg.toSeq == nodes.map(v => karate.degree(v.toInt)).toSeq)
    val want = for (i <- nodes.indices; j <- nodes.indices
                    if i < j && karate.hasEdge(nodes(i).toInt, nodes(j).toInt)) yield (i, j)
    assert(es.toSet == want.toSet)
  }

  test("bfsDist matches LocalGraph BFS from a single source") {
    Seq(0, 16, 33).foreach(s => assertSameBfs(karate, s))
  }

  test("bfsDist multi-source matches LocalGraph") {
    val bfs = GraphFrames.bfsDist(adj, Seq(0L, 33L))
    val want = karate.bfsDist(Seq(0, 33))
    assert(distParent(karate, bfs).map(_._1) == want.toSeq)
    assert(bfs.layers.forall(l => l.toSeq == l.sorted.toSeq))
  }

  test("bfsDist covers only the source component") {
    val g = LocalGraph.fromEdges(9, Seq((0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (6, 7), (7, 8)))
    Seq(0, 3, 5, 8).foreach(s => assertSameBfs(g, s))
    assert(GraphFrames.bfsDist(adjOf(g), Seq(0L)).ids.toSet == Set(0L, 1L, 2L, 3L))
  }

  test("bfsDist runs until the frontier is empty (70-node path)") {
    val bfs = GraphFrames.bfsDist(adjOf(path), Seq(0L))
    assert(bfs.ids.length == 70)
    assert(bfs.layers.length == 70)
    assertSameBfs(path, 0)
  }

  test("bfsDist with targets stops after the farthest target's layer (70-node path)") {
    val bfs = GraphFrames.bfsDist(adjOf(path), Seq(0L), Seq(2L))
    assert(bfs.layers.map(_.toSeq) == Seq(Seq(0L), Seq(1L), Seq(2L)))
    assert(bfs.sumDeg.toSeq == Seq(1L, 2L) && bfs.nEdges.toSeq == Seq(0L, 1L)) // layer 2 not expanded
  }

  test("bfsDist with targets gives the parents of LocalGraph.bfsParentsTo") {
    val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = 3)
    val s = adjOf(gt.graph).cache()
    for (targets <- Seq(Seq(5), Seq(17, 250), Seq(40, 41, 42, 299))) {
      val bfs = GraphFrames.bfsDist(s, Seq(0L), targets.map(_.toLong))
      val want = gt.graph.bfsParentsTo(0, targets).get
      val far = targets.map(gt.graph.bfsDist(Seq(0))(_)).max
      assert(bfs.layers.length == far + 1, s"targets $targets")
      (0 until gt.graph.n).foreach { v =>
        assert(bfs.parent.getOrElse(v.toLong, -1L) == want(v).toLong, s"targets $targets, node $v")
      }
    }
    s.unpersist()
  }

  test("bfsDist with an unreachable target runs to the end without it") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val bfs = GraphFrames.bfsDist(adjOf(g), Seq(0L), Seq(2L, 3L))
    assert(bfs.ids.toSeq == Seq(0L, 1L, 2L))
    assert(!bfs.parent.contains(3L))
  }

  test("bfsDist layer stats equal LocalGraph.bfsLayers on LFR graphs") {
    for (seed <- 1 to 4) {
      val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 80, seed = seed)
      val s = adjOf(gt.graph).cache()
      for (sources <- Seq(Seq(0), Seq(7, 123), Seq(1, 2, 3, 299))) {
        val bfs = GraphFrames.bfsDist(s, sources.map(_.toLong))
        val want = gt.graph.bfsLayers(sources)
        val ctx = s"seed $seed sources $sources"
        assert(bfs.layers.map(_.length.toLong) == want.nNodes.toSeq, ctx)
        assert(bfs.sumDeg.toSeq == want.sumDeg.toSeq, ctx)
        assert(bfs.nEdges.toSeq == want.nEdges.toSeq, ctx)
      }
      s.unpersist()
    }
  }

  test("bfsDist layer stats drop edges with an unreached endpoint") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (3, 4)))
    val bfs = GraphFrames.bfsDist(adjOf(g), Seq(0L))
    assert(bfs.nEdges.sum == 2) // edge (3,4) excluded
    assert(bfs.sumDeg.sum == 4)
  }

  test("layer edge totals equal |E| of the component") {
    val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 80, seed = 6)
    val comp = gt.graph.componentOf(0)
    assert(GraphFrames.bfsDist(adjOf(gt.graph), Seq(0L)).nEdges.sum == gt.graph.edgeCount(comp))
  }
}
