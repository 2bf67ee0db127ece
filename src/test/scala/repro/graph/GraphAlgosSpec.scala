package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

class GraphAlgosSpec extends AnyFunSuite {

  private def clique(n: Int) =
    LocalGraph.fromEdges(n, for { i <- 0 until n; j <- i + 1 until n } yield (i, j))
  private def cycle(n: Int) = LocalGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  private def allBits(n: Int): mutable.BitSet = {
    val b = mutable.BitSet.empty; (0 until n).foreach(b += _); b
  }
  private def randomGraph(n: Int, p: Double, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    LocalGraph.fromEdges(n,
      for { i <- 0 until n; j <- i + 1 until n if rnd.nextDouble() < p } yield (i, j))
  }

  // ------------------------------------------------------------- truss
  test("truss of K5 is 5 on every edge") {
    val t = GraphAlgos.trussDecomposition(clique(5))
    assert(t.truss.forall(_ == 5))
    assert(t.nodeTrussness.forall(_ == 5))
    assert(t.maxTruss == 5)
  }

  test("truss of a cycle is 2 (no triangles)") {
    val t = GraphAlgos.trussDecomposition(cycle(7))
    assert(t.truss.forall(_ == 2))
  }

  test("truss of two K4s sharing one edge") {
    val es = (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++
      Seq((0, 4), (0, 5), (1, 4), (1, 5), (4, 5))
    val g = LocalGraph.fromEdges(6, es)
    val t = GraphAlgos.trussDecomposition(g)
    assert(t.truss.forall(_ == 4), t.truss.toSeq.toString)
  }

  test("edgesAtLeast filters by truss") {
    val g = LocalGraph.fromEdges(5,
      (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++ Seq((3, 4)))
    val t = GraphAlgos.trussDecomposition(g)
    assert(t.edgesAtLeast(4).size == 6) // the K4
    assert(t.edgesAtLeast(2).size == 7)
  }

  /** Brute-force truss number: max k such that the edge survives iterated
    * removal of edges with support < k-2.
    */
  private def bruteTruss(g: LocalGraph): Map[(Int, Int), Int] = {
    val out = mutable.HashMap.empty[(Int, Int), Int]
    g.edges.foreach(e => out(e) = 2)
    var k = 3
    var anyLeft = true
    while (anyLeft) {
      var live = mutable.HashSet.empty[(Int, Int)] ++ g.edges
      var changed = true
      while (changed) {
        changed = false
        val adjSet = mutable.HashMap.empty[Int, mutable.HashSet[Int]]
        live.foreach { case (u, v) =>
          adjSet.getOrElseUpdate(u, mutable.HashSet.empty) += v
          adjSet.getOrElseUpdate(v, mutable.HashSet.empty) += u
        }
        val toDrop = live.filter { case (u, v) =>
          (adjSet(u) intersect adjSet(v)).size < k - 2
        }
        if (toDrop.nonEmpty) { live --= toDrop; changed = true }
      }
      if (live.isEmpty) anyLeft = false
      else { live.foreach(e => out(e) = k); k += 1 }
    }
    out.toMap
  }

  for (seed <- 1 to 6) {
    test(s"truss decomposition matches brute force, seed=$seed") {
      val g = randomGraph(15, 0.35, seed)
      val t = GraphAlgos.trussDecomposition(g)
      val brute = bruteTruss(g)
      t.truss.indices.foreach { i =>
        val e = (t.edgeU(i), t.edgeV(i))
        assert(t.truss(i) == brute(e), s"edge $e fast=${t.truss(i)} brute=${brute(e)}")
      }
    }
  }

  // ----------------------------------------------------------- betweenness
  test("edge betweenness of P3") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val bc = GraphAlgos.betweenness(g, allBits(3))._2
    assert(math.abs(bc((0, 1)) - 2.0) < 1e-9)
    assert(math.abs(bc((1, 2)) - 2.0) < 1e-9)
  }

  test("edge betweenness of a 4-star: every spoke covers 3 pairs") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (0, 2), (0, 3)))
    val bc = GraphAlgos.betweenness(g, allBits(4))._2
    Seq((0, 1), (0, 2), (0, 3)).foreach(e => assert(math.abs(bc(e) - 3.0) < 1e-9))
  }

  test("edge betweenness respects dead edges") {
    val g = cycle(4)
    val dead01 = (u: Int, v: Int) => !(u == 0 && v == 1 || u == 1 && v == 0)
    val bc = GraphAlgos.betweenness(g, allBits(4), dead01)._2
    assert(!bc.contains((0, 1)) || bc((0, 1)) == 0.0)
  }

  test("bridge edge in a barbell has the max betweenness") {
    val es = (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++
      (for { i <- 4 until 8; j <- i + 1 until 8 } yield (i, j)) ++ Seq((0, 4))
    val g = LocalGraph.fromEdges(8, es)
    val bc = GraphAlgos.betweenness(g, allBits(8))._2
    assert(bc.maxBy(_._2)._1 == (0, 4))
  }

  // -------------------------------------------------------------- cliques
  test("maximal cliques of K4") {
    val cs = GraphAlgos.maximalCliques(clique(4))
    assert(cs.length == 1 && cs.head.toSeq == Seq(0, 1, 2, 3))
  }

  test("maximal cliques of K4 plus pendant") {
    val g = LocalGraph.fromEdges(5,
      (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++ Seq((3, 4)))
    val cs = GraphAlgos.maximalCliques(g).map(_.toSeq).toSet
    assert(cs == Set(Seq(0, 1, 2, 3), Seq(3, 4)))
  }

  test("maximal cliques of two triangles sharing an edge") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    val cs = GraphAlgos.maximalCliques(g).map(_.toSeq).toSet
    assert(cs == Set(Seq(0, 1, 2), Seq(1, 2, 3)))
  }

  for (seed <- 1 to 4) {
    test(s"maximal cliques are maximal and cliques, seed=$seed") {
      val g = randomGraph(12, 0.4, seed + 50)
      val cs = GraphAlgos.maximalCliques(g)
      cs.foreach { c =>
        for (i <- c.indices; j <- i + 1 until c.length) assert(g.hasEdge(c(i), c(j)))
        // maximality: no node adjacent to all of c
        (0 until g.n).foreach { v =>
          if (!c.contains(v)) assert(!c.forall(g.hasEdge(v, _)))
        }
      }
    }
  }

  // --------------------------------------------------------------- min cut
  test("Stoer-Wagner on a barbell finds the bridge") {
    val es = (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++
      (for { i <- 4 until 8; j <- i + 1 until 8 } yield (i, j)) ++ Seq((0, 4))
    val g = LocalGraph.fromEdges(8, es)
    val (cut, side) = GraphAlgos.stoerWagnerMinCut(g, (0 until 8).toArray)
    assert(cut == 1)
    assert(side.toSet == Set(0, 1, 2, 3) || side.toSet == Set(4, 5, 6, 7))
  }

  test("Stoer-Wagner of a cycle is 2") {
    val (cut, _) = GraphAlgos.stoerWagnerMinCut(cycle(6), (0 until 6).toArray)
    assert(cut == 2)
  }

  test("Stoer-Wagner of K4 is 3") {
    val (cut, _) = GraphAlgos.stoerWagnerMinCut(clique(4), (0 until 4).toArray)
    assert(cut == 3)
  }

  // ------------------------------------------------------------ centrality
  test("node betweenness: path center dominates") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val bc = GraphAlgos.betweenness(g, allBits(5))._1
    assert(bc(2) > bc(1) && bc(1) > bc(0))
    assert(math.abs(bc(2) - 4.0) < 1e-9) // pairs (0,3),(0,4),(1,3),(1,4)
  }

  test("eigen centrality: star center dominates") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    val e = Centrality.eigen(g, allBits(5))
    assert((1 to 4).forall(e(0) > e(_)))
  }

  test("eigen centrality is uniform on a cycle") {
    val e = Centrality.eigen(cycle(6), allBits(6))
    val vals = e.values.toSeq
    assert(vals.max - vals.min < 1e-6)
  }
}
