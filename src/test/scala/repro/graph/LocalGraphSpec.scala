package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

class LocalGraphSpec extends AnyFunSuite {

  private def path(n: Int) = LocalGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
  private def cycle(n: Int) = LocalGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  private def star(n: Int) = LocalGraph.fromEdges(n, (1 until n).map(i => (0, i)))
  private def clique(n: Int) =
    LocalGraph.fromEdges(n, for { i <- 0 until n; j <- i + 1 until n } yield (i, j))
  private def allBits(n: Int): mutable.BitSet = {
    val b = mutable.BitSet.empty; (0 until n).foreach(b += _); b
  }
  private def randomGraph(n: Int, p: Double, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    LocalGraph.fromEdges(n,
      for { i <- 0 until n; j <- i + 1 until n if rnd.nextDouble() < p } yield (i, j))
  }

  test("fromEdges dedupes parallel edges and drops self loops") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1), (2, 2)))
    assert(g.m == 1)
    assert(g.degree.toSeq == Seq(1, 1, 0))
  }

  test("fromEdges rejects out-of-range nodes") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq((0, 5))))
  }

  for (n <- 2 to 8) {
    test(s"path($n): degrees, edges, bfs") {
      val g = path(n)
      assert(g.m == n - 1)
      assert(g.degree(0) == 1 && g.degree(n - 1) == 1)
      val d = g.bfsDist(Seq(0))
      (0 until n).foreach(i => assert(d(i) == i))
    }
    test(s"cycle($n): 2-regular, bfs wraps") {
      val g = cycle(n)
      assert(g.m == (if (n == 2) 1 else n))
      if (n > 2) {
        assert(g.degree.forall(_ == 2))
        val d = g.bfsDist(Seq(0))
        (0 until n).foreach(i => assert(d(i) == math.min(i, n - i)))
      }
    }
    test(s"clique($n): complete") {
      val g = clique(n)
      assert(g.m == n.toLong * (n - 1) / 2)
      assert(g.degree.forall(_ == n - 1))
      assert(g.bfsDist(Seq(0)).forall(_ <= 1))
    }
  }

  test("hasEdge on sorted adjacency") {
    val g = path(5)
    assert(g.hasEdge(1, 2) && g.hasEdge(2, 1))
    assert(!g.hasEdge(0, 2))
  }

  test("edges iterator emits each undirected edge once") {
    val g = clique(5)
    val es = g.edges.toSeq
    assert(es.size == 10)
    assert(es.forall { case (u, v) => u < v })
  }

  test("bfsDist multi-source takes minimum") {
    val g = path(7)
    val d = g.bfsDist(Seq(0, 6))
    assert(d(3) == 3 && d(1) == 1 && d(5) == 1)
  }

  test("bfsDist restricted to members") {
    val g = path(5)
    val members = mutable.BitSet(0, 1, 3, 4)
    val d = g.bfsDist(Seq(0), members)
    assert(d(1) == 1)
    assert(d(3) == -1 && d(4) == -1) // 2 removed: unreachable
  }

  test("bfsParents yields a valid shortest-path tree") {
    val g = cycle(8)
    val p = g.bfsParents(0)
    val d = g.bfsDist(Seq(0))
    (1 until 8).foreach { v => assert(d(p(v)) == d(v) - 1) }
  }

  test("bfsParents picks the smallest-id parent in the previous layer") {
    // 5 is reached from 4 (dequeued first) and from 3; the rule keeps 3
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)))
    assert(g.bfsParents(0)(5) == 3)
  }

  test("componentOf finds exactly one component") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    assert(g.componentOf(0).toSet == Set(0, 1, 2))
    assert(g.componentOf(3).toSet == Set(3, 4))
    assert(g.componentOf(5).toSet == Set(5))
  }

  // The early-exit parents and the layered BFS against the full-graph
  // kernels they replace in a query, on the LFR(300) graphs of PeelerSpec.
  private def lfrQueries(seed: Int, nq: Int): (LocalGraph, Seq[Int]) = {
    val g = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed).graph
    val rnd = new Random(seed * 7 + nq)
    (g, Seq.fill(nq)(rnd.nextInt(g.n)))
  }
  private def protectedBy(q: Seq[Int], parents: Array[Int]): Set[Long] =
    repro.core.Peeler.protectPaths(q.map(_.toLong), v => parents(v.toInt)).toSet

  for (seed <- 1 to 3; nq <- Seq(2, 4, 8)) {
    test(s"bfsParentsTo protects the paths of the full bfsParents, LFR seed=$seed |Q|=$nq") {
      val (g, q) = lfrQueries(seed, nq)
      val full = g.bfsParents(q.head)
      g.bfsParentsTo(q.head, q.tail) match {
        case Some(early) => assert(protectedBy(q, early) == protectedBy(q, full), s"q=$q")
        case None => assert(q.exists(v => v != q.head && full(v) == -1), s"q=$q")
      }
    }
  }

  test("bfsParentsTo stops after the layer before the farthest target") {
    val g = path(10)
    val p = g.bfsParentsTo(0, Seq(3, 2)).get
    assert((1 to 3).forall(v => p(v) == v - 1))
    assert((4 until 10).forall(p(_) == -1))
    assert(g.bfsParentsTo(0, Seq(0)).get.forall(_ == -1))
  }

  test("bfsParentsTo keeps the min-id parent of a target's layer") {
    // as above: 5 is reached from 4 first, and 3 is the smaller parent
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)))
    assert(g.bfsParentsTo(0, Seq(5)).get(5) == 3)
  }

  test("bfsParentsTo reports an unreached target, also among duplicates") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    assert(g.bfsParentsTo(0, Seq(2, 2)).isDefined)
    assert(g.bfsParentsTo(0, Seq(2, 1, 2, 0)).isDefined)
    assert(g.bfsParentsTo(0, Seq(1, 4)).isEmpty)
    assert(g.bfsParentsTo(0, Seq(4, 4)).isEmpty)
    assert(g.bfsParentsTo(0, Seq(5)).isEmpty)
  }

  /** The per-layer pass that `bfsLayers` folds into its BFS. */
  private def separateLayerStats(g: LocalGraph, dist: Array[Int]): Seq[(Long, Long, Long)] = {
    val layers = dist.max + 1
    val (nNodes, sumDeg, nEdges) =
      (new Array[Long](layers), new Array[Long](layers), new Array[Long](layers))
    for (u <- 0 until g.n if dist(u) >= 0) {
      nNodes(dist(u)) += 1; sumDeg(dist(u)) += g.degree(u)
      for (w <- g.adj(u) if w > u) nEdges(math.max(dist(u), dist(w))) += 1
    }
    (0 until layers).map(t => (nNodes(t), sumDeg(t), nEdges(t)))
  }

  for (seed <- 1 to 3; nq <- Seq(1, 2, 4, 8)) {
    test(s"bfsLayers equals bfsDist and the separate layer pass, LFR seed=$seed |Q|=$nq") {
      val (g, q) = lfrQueries(seed, nq)
      val l = g.bfsLayers(q)
      val dist = g.bfsDist(q)
      assert(l.dist.toSeq == dist.toSeq)
      val order = l.order.take(l.reached).toSeq
      assert(order.toSet == (0 until g.n).filter(dist(_) >= 0).toSet)
      assert(order.map(dist(_)) == order.map(dist(_)).sorted, "order must be sorted by layer")
      assert(l.nNodes.indices.map(t => (l.nNodes(t), l.sumDeg(t), l.nEdges(t))) ==
        separateLayerStats(g, dist))
    }
  }

  test("bfsLayers on a node without edges and across components") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (3, 4)))
    val one = g.bfsLayers(Seq(5))
    assert(one.reached == 1 && one.order(0) == 5)
    assert((one.nNodes.toSeq, one.sumDeg.toSeq, one.nEdges.toSeq) == (Seq(1L), Seq(0L), Seq(0L)))
    val two = g.bfsLayers(Seq(0, 4, 0))
    assert(two.reached == 5 && two.nNodes.toSeq == Seq(2L, 2L, 1L) && two.nEdges.toSeq == Seq(0L, 2L, 1L))
  }

  test("isConnected") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(g.isConnected(mutable.BitSet(0, 1)))
    assert(!g.isConnected(mutable.BitSet(0, 1, 2)))
    assert(g.isConnected(mutable.BitSet.empty))
  }

  test("articulation points of a path are the interior nodes") {
    val g = path(5)
    assert(g.articulationPoints(allBits(5)).toSet == Set(1, 2, 3))
  }

  test("articulation points of a cycle: none") {
    val g = cycle(6)
    assert(g.articulationPoints(allBits(6)).isEmpty)
  }

  test("articulation points of a star: the center") {
    val g = star(6)
    assert(g.articulationPoints(allBits(6)).toSet == Set(0))
  }

  test("articulation point of two triangles sharing a node") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)))
    assert(g.articulationPoints(allBits(5)).toSet == Set(2))
  }

  test("articulation respects membership restriction") {
    val g = cycle(6)
    val members = mutable.BitSet(0, 1, 2, 3) // path 0-1-2-3 within the cycle
    assert(g.articulationPoints(members).toSet == Set(1, 2))
  }

  for (seed <- 1 to 8) {
    test(s"articulation matches brute force on random graph seed=$seed") {
      val g = randomGraph(14, 0.2, seed)
      val members = allBits(14)
      val fast = g.articulationPoints(members).toSet
      // brute force: a non-isolated v is an articulation point iff removing
      // it increases the number of connected components
      def nComponents(mem: mutable.BitSet): Int = {
        val seen = mutable.BitSet.empty
        var c = 0
        mem.foreach { v =>
          if (!seen(v)) { c += 1; g.componentOf(v, mem).foreach(seen += _) }
        }
        c
      }
      val base = nComponents(members)
      val brute = (0 until 14).filter { v =>
        val mem = members.clone(); mem -= v
        g.degree(v) > 0 && nComponents(mem) > base
      }.toSet
      assert(fast == brute)
    }
  }

  // ------------------------------------- cutCheck against Hopcroft–Tarjan
  private def barbell(k: Int) = LocalGraph.fromEdges(2 * k,
    (for { i <- 0 until k; j <- i + 1 until k } yield Seq((i, j), (k + i, k + j))).flatten :+
      ((k - 1, k)))
  /** keepsConnected(v) == !articulationPoints(members)(v) for every member v. */
  private def assertCutCheck(g: LocalGraph, members: mutable.BitSet): Unit = {
    assert(g.isConnected(members))
    val art = g.articulationPoints(members)
    val cut = g.cutCheck(members, members.head)
    members.foreach(v => assert(cut.keepsConnected(v) == !art(v), s"v=$v of $members"))
  }
  /** The check's tree spans `members`: every parent is an adjacent member
    * with a smaller label, every chain reaches the root, and each child
    * count is right.
    */
  private def assertTree(g: LocalGraph, cut: LocalGraph#CutCheck, members: mutable.BitSet, root: Int): Unit = {
    assert(cut.parentOf(root) == -1)
    val kids = mutable.Map.empty[Int, Int].withDefaultValue(0)
    members.foreach { v =>
      if (v != root) {
        val p = cut.parentOf(v)
        assert(members(p) && g.hasEdge(p, v), s"parent $p of $v")
        assert(cut.labelOf(p) < cut.labelOf(v), s"labels of $p -> $v")
        kids(p) += 1
        var u = v; var steps = 0
        while (u != root && steps <= members.size) { u = cut.parentOf(u); steps += 1 }
        assert(u == root, s"$v does not reach the root")
      }
    }
    members.foreach(v => assert(cut.childCount(v) == kids(v), s"children of $v"))
  }
  /** bestNonCut and keepsConnected against Hopcroft–Tarjan, with the members
    * ranked in a random order.
    */
  private def assertChecks(g: LocalGraph, cut: LocalGraph#CutCheck, members: mutable.BitSet, rnd: Random): Unit = {
    val art = g.articulationPoints(members)
    members.foreach(v => assert(cut.keepsConnected(v) == !art(v), s"v=$v"))
    val order = rnd.shuffle(members.toSeq)
    val rank: (Int => Boolean) => Int = ok => order.find(ok).getOrElse(-1)
    assert(cut.bestNonCut(rank) == rank(!art(_)), s"order=$order")
  }
  /** Ranks the given members first, in that order. */
  private def prefer(vs: Int*): (Int => Boolean) => Int = ok => vs.find(ok).getOrElse(-1)

  for ((name, g) <- Seq("path" -> path(7), "cycle" -> cycle(7), "star" -> star(7),
      "barbell" -> barbell(4), "two-node" -> path(2))) {
    test(s"cutCheck equals Hopcroft–Tarjan on a $name") {
      assertCutCheck(g, allBits(g.n))
    }
  }

  test("cutCheck on a two-node member set inside a larger graph") {
    assertCutCheck(clique(5), mutable.BitSet(1, 3))
  }

  for (seed <- 1 to 6; (density, p) <- Seq("sparse" -> 0.05, "dense" -> 0.4)) {
    test(s"cutCheck equals Hopcroft–Tarjan on $density random member sets seed=$seed") {
      val g = randomGraph(60, p, seed + 200)
      val rnd = new Random(seed)
      // the component of the first kept node within a random 70% of the nodes
      val kept = mutable.BitSet.empty ++= (0 until 60).filter(_ => rnd.nextDouble() < 0.7)
      val members = g.componentOf(kept.head, kept)
      assertCutCheck(g, members)
      assertCutCheck(g, g.componentOf(0))
      // one check object stays exact while a peel removes non-cut members
      val root = members.head
      val cut = g.cutCheck(members, root)
      while (members.size > 1) {
        assertTree(g, cut, members, root)
        assertChecks(g, cut, members, rnd)
        val art = g.articulationPoints(members)
        val nonCut = members.filterNot(v => art(v) || v == root).toSeq
        cut.remove(nonCut(rnd.nextInt(nonCut.size)))
      }
      assertTree(g, cut, members, root)
    }
  }

  for (seed <- 1 to 6; (density, p) <- Seq("sparse" -> 0.05, "dense" -> 0.2)) {
    test(s"cutCheck keeps a spanning tree through random adds and removes, $density seed=$seed") {
      val g = randomGraph(60, p, seed + 300)
      val rnd = new Random(seed)
      val root = g.componentOf(0).maxBy(g.degree(_))
      val members = mutable.BitSet(root)
      val cut = g.cutCheck(members, root)
      for (_ <- 1 to 150) {
        val art = g.articulationPoints(members)
        val nonCut = members.filterNot(v => art(v) || v == root).toSeq
        val outside = members.toSeq.flatMap(g.adj(_)).filterNot(members).distinct.sorted
        if (outside.nonEmpty && (nonCut.isEmpty || rnd.nextDouble() < 0.6))
          cut.add(outside(rnd.nextInt(outside.size)))
        else if (nonCut.nonEmpty) cut.remove(nonCut(rnd.nextInt(nonCut.size)))
        assertTree(g, cut, members, root)
        assertChecks(g, cut, members, rnd)
      }
      assert(cut.repairs + cut.rebuilds > 0 && cut.leaves > 0)
    }
  }

  // A 6-cycle rooted at 0 with the path 3-6-7 hanging off it. The BFS tree
  // is 0-1-2-3-6-7 and 0-5-4, labelled by depth.
  private val cycleTail = LocalGraph.fromEdges(8, (0 until 6).map(i => (i, (i + 1) % 6)) ++ Seq((3, 6), (6, 7)))

  test("bestNonCut answers by leaf, anchor, search or articulation points") {
    val g = cycleTail
    val members = allBits(8)
    val cut = g.cutCheck(members, 0)
    assert(cut.labelOf(3) == 3 && cut.parentOf(3) == 2 && cut.labelOf(4) == 2)
    assert(cut.bestNonCut(prefer(7)) == 7 && cut.leaves == 1)
    // 2's child 3 is anchored by 4, whose label equals 2's
    assert(cut.bestNonCut(prefer(2)) == 2 && cut.anchors == 1 && cut.searches == 0)
    // 1's child 2 has no anchor, yet 1 is not a cut vertex
    assert(cut.bestNonCut(prefer(1)) == 1 && cut.searches == 1)
    // 3 is a cut vertex: 6 and 7 hang off it
    assert(cut.bestNonCut(prefer(3, 6, 2)) == 2 && cut.fallbacks == 1)
    assert(cut.bestNonCut(prefer(0)) == 0 && cut.searches == 2) // the root has no anchors
  }

  test("cutCheck moves anchored children and rebuilds when a child has no anchor") {
    val g = cycleTail
    val repaired = allBits(8)
    val a = g.cutCheck(repaired, 0)
    a.remove(2) // 3 moves under its anchor 4
    assert(a.repairs == 1 && a.rebuilds == 0 && a.parentOf(3) == 4)
    assertTree(g, a, repaired, 0)
    a.remove(1) // now a leaf
    assert(a.repairs == 1 && a.rebuilds == 0)
    assertTree(g, a, repaired, 0)

    val rebuilt = allBits(8)
    val b = g.cutCheck(rebuilt, 0)
    b.remove(1) // 1's child 2 has no anchor
    assert(b.rebuilds == 1 && b.repairs == 0)
    assertTree(g, b, rebuilt, 0)
    val dist = g.bfsDist(Seq(0), rebuilt)
    rebuilt.foreach(v => assert(b.labelOf(v) == dist(v), s"label of $v"))
    b.add(1) // back as a leaf under 0
    assert(b.parentOf(1) == 0 && b.labelOf(1) == 1)
    assertTree(g, b, rebuilt, 0)
  }

  test("coreNumbers of a clique") {
    assert(clique(5).coreNumbers().forall(_ == 4))
  }

  test("coreNumbers of a tree are all 1") {
    val g = LocalGraph.fromEdges(7, Seq((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)))
    assert(g.coreNumbers().forall(_ == 1))
  }

  test("coreNumbers of a cycle are all 2") {
    assert(cycle(8).coreNumbers().forall(_ == 2))
  }

  test("coreNumbers of clique with a tail") {
    val g = LocalGraph.fromEdges(7,
      (for { i <- 0 until 4; j <- i + 1 until 4 } yield (i, j)) ++ Seq((3, 4), (4, 5), (5, 6)))
    val c = g.coreNumbers()
    assert((0 until 4).forall(c(_) == 3))
    assert(Seq(4, 5, 6).forall(c(_) == 1))
  }

  for (seed <- 1 to 6) {
    test(s"coreNumbers brute-force check seed=$seed") {
      val g = randomGraph(16, 0.25, seed + 100)
      val core = g.coreNumbers()
      // brute: k-core via repeated peeling; node's core = max k with node in k-core
      def inKCore(k: Int): Set[Int] = {
        val mem = allBits(16)
        var changed = true
        while (changed) {
          changed = false
          mem.toArray.foreach { v =>
            if (g.degreeWithin(v, mem) < k) { mem -= v; changed = true }
          }
        }
        mem.toSet
      }
      val maxK = g.degree.max
      (0 until 16).foreach { v =>
        val brute = (0 to maxK).filter(k => inKCore(k).contains(v)).max
        assert(core(v) == brute, s"node $v: fast=${core(v)} brute=$brute")
      }
    }
  }

  test("edgeCount and degreeSum on subsets") {
    val g = clique(5)
    val s = mutable.BitSet(0, 1, 2)
    assert(g.edgeCount(s) == 3)
    assert(g.degreeSum(s) == 12)
    assert(g.degreeWithin(0, s) == 2)
    assert(g.degreeWithin(4, s) == 3)
  }
}
