package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.baselines.GraphCtx
import repro.eval.QueryGen
import repro.graph.{GraphFrames, GraphGen, LocalGraph}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The distributed pipeline must return exactly the community of the local
  * layer-pruned FPA for every |Q| (same protected paths, same prefix
  * selection, same peel, same tie-breaks).
  */
class SparkDMCSSpec extends SparkSpec {

  /** None when both engines agree, else what differs. */
  private def mismatch(g: LocalGraph, q: Seq[Int]): Option[String] = {
    val edges = GraphFrames.edgeDF(spark, g)
    val local = Peeler.fpa(g, q)
    val dist = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
    val same = dist.ok == local.ok && (!local.ok ||
      dist.community.map(_.toInt) == local.community && math.abs(dist.dm - local.score) < 1e-12)
    if (same) None
    else Some(s"q=$q spark=${dist.community.toSeq.sorted} (dm ${dist.dm}) " +
      s"local=${local.community.toSeq.sorted} (dm ${local.score})")
  }
  private def assertEquivalent(g: LocalGraph, q: Seq[Int]): Unit =
    mismatch(g, q).foreach(m => fail(m))

  test("karate: SparkDMCS == local FPA (hub query)") {
    assertEquivalent(GraphGen.karate.graph, Seq(0))
  }
  test("karate: SparkDMCS == local FPA (officer hub)") {
    assertEquivalent(GraphGen.karate.graph, Seq(33))
  }
  test("karate: SparkDMCS == local FPA (peripheral query)") {
    assertEquivalent(GraphGen.karate.graph, Seq(16))
  }
  test("ring of cliques: SparkDMCS finds the 6-clique") {
    val g = GraphGen.ringOfCliques(10, 6)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, g), Seq(14L))
    assert(r.ok && r.community == (12 until 18).map(_.toLong).toSet)
  }

  for (seed <- 1 to 6) {
    test(s"LFR seed=$seed: SparkDMCS == local FPA") {
      val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed)
      val ctx = new GraphCtx(gt.graph)
      val diffs = for {
        k <- Seq(1, 2, 4, 8)
        (q, _) <- QueryGen.querySets(gt, ctx, 2, k, seed * 10 + k)
        m <- mismatch(gt.graph, q)
      } yield s"|Q|=$k $m"
      assert(diffs.isEmpty, diffs.mkString("\n"))
    }
  }

  test("the order and repeats of Q do not change the answer") {
    val gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = 1)
    val edges = GraphFrames.edgeDF(spark, gt.graph)
    for (k <- Seq(2, 4); (q, _) <- QueryGen.querySets(gt, new GraphCtx(gt.graph), 2, k, 70 + k)) {
      val messy = new scala.util.Random(q.sum).shuffle(q ++ q.take(2)).map(_.toLong)
      val want = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
      assert(want.ok && SparkDMCS.fpa(spark, edges, messy) == want, s"q=$messy")
    }
  }

  test("multi-query: community contains all queries and is connected") {
    val gt = GraphGen.lfr(250, 10, 40, 0.3, 20, 60, seed = 9)
    val comm = gt.communities.maxBy(_.size).toSeq.sorted
    val q = comm.take(3)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, gt.graph), q.map(_.toLong))
    assert(r.ok)
    assert(q.forall(v => r.community.contains(v.toLong)))
    val bits = mutable.BitSet.empty
    r.community.foreach(v => bits += v.toInt)
    assert(gt.graph.isConnected(bits))
  }

  test("isolated query: SparkDMCS == local FPA") {
    // node 4 has no edges, so no degrees row; both engines return {4}
    assertEquivalent(LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3))), Seq(4))
  }

  test("queries in different components fail gracefully") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, g), Seq(0L, 3L))
    assert(!r.ok)
  }

  test("reported chosenLayer is within [0, maxLayer]") {
    val gt = GraphGen.lfr(250, 10, 40, 0.3, 20, 60, seed = 4)
    val r = SparkDMCS.fpa(spark, GraphFrames.edgeDF(spark, gt.graph), Seq(0L))
    assert(r.ok && r.chosenLayer >= 0 && r.chosenLayer <= r.maxLayer)
  }

  test("dirty edge list: self-loops, both orientations and duplicates give the local answer") {
    import spark.implicits._
    val es = GraphGen.karate.graph.edges.toSeq
    val dirty = es.map(_.swap) ++ es.take(30) ++ es.take(10) ++ Seq((0, 0), (16, 16), (33, 33))
    val g = LocalGraph.fromEdges(34, dirty)
    val edges = dirty.map { case (u, v) => (u.toLong, v.toLong) }.toDF("src", "dst")
    for (q <- Seq(Seq(0), Seq(16), Seq(5, 24))) {
      val local = Peeler.fpa(g, q)
      val dist = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
      assert(dist.ok && local.ok)
      assert(dist.community.map(_.toInt) == local.community, s"q=$q")
      assert(math.abs(dist.dm - local.score) < 1e-12, s"q=$q")
    }
  }

  test("every return path leaves the cached RDDs as it found them") {
    val g = LocalGraph.fromEdges(7, Seq((0, 1), (1, 2), (0, 2), (2, 3), (4, 5)))
    val edges = GraphFrames.edgeDF(spark, g)
    val sc = spark.sparkContext
    for ((q, ok) <- Seq(Seq(0L, 3L) -> true, Seq(0L, 4L) -> false, Seq(6L) -> true)) {
      val before = sc.getPersistentRDDs.keySet
      assert(SparkDMCS.fpa(spark, edges, q).ok == ok, s"q=$q")
      assert(sc.getPersistentRDDs.keySet == before, s"q=$q")
    }
  }

  /** `body`'s result and the number of Spark jobs it starts, counted by a
    * SparkListener. Job ids grow in start order, so a marker job before and
    * after `body` bounds its ids; the listener bus delivers events in order,
    * so once the second marker is seen so is every job of `body`.
    */
  private def withJobs[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val started = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.add(e.jobId)
    }
    def marker(): Int = {
      val f = sc.parallelize(Seq(1), 1).countAsync()
      f.get()
      val id = f.jobIds.head
      val deadline = System.currentTimeMillis() + 30000
      while (!started.contains(id) && System.currentTimeMillis() < deadline) Thread.sleep(5)
      assert(started.contains(id), "the listener never saw the marker job")
      id
    }
    sc.addSparkListener(listener)
    try {
      val first = marker()
      val res = body
      val last = marker()
      (res, started.asScala.count(id => id > first && id < last))
    } finally sc.removeSparkListener(listener)
  }

  test("job budget: one job per BFS layer, and the parent BFS stops at the farthest query") {
    // 70-node path, Q = {0, 2}: the parent BFS needs 2 layers, not 69
    val g = LocalGraph.fromEdges(70, (0 until 69).map(i => (i, i + 1)))
    val q = Seq(0, 2)
    val edges = GraphFrames.edgeDF(spark, g).cache()
    edges.count()
    val lq = q.map(g.bfsDist(Seq(q.head))(_)).max
    val parent = g.bfsParents(q.head)
    val prot = Peeler.protectPaths(q.map(_.toLong), v => parent(v.toInt).toLong)
    val lMax = g.bfsDist(prot.map(_.toInt)).max
    val (r, jobs) = withJobs(SparkDMCS.fpa(spark, edges, q.map(_.toLong)))
    edges.unpersist()
    assert(r.ok && r.maxLayer == lMax)
    assert(jobs <= lq + lMax + 4, s"$jobs jobs for L_q=$lq, L_max=$lMax")
  }
}
