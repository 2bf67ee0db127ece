package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.GraphCtx
import repro.eval.QueryGen
import repro.graph.{GraphGen, LocalGraph}
import scala.collection.mutable
import scala.util.Random

class PeelerSpec extends AnyFunSuite {

  private def toBits(s: Set[Int]): mutable.BitSet = {
    val b = mutable.BitSet.empty; s.foreach(b += _); b
  }
  private def randomConnected(n: Int, p: Double, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    // random tree backbone guarantees connectivity, then extra edges
    (1 until n).foreach(i => es += ((rnd.nextInt(i), i)))
    for (i <- 0 until n; j <- i + 1 until n if rnd.nextDouble() < p) es += ((i, j))
    LocalGraph.fromEdges(n, es.toSeq)
  }

  // ------------------------------------------------ ring-of-cliques behavior
  test("FPA on the ring of cliques returns exactly the query's 6-clique") {
    val g = GraphGen.ringOfCliques(30, 6)
    val r = Peeler.fpa(g, Seq(14)) // interior node of clique 2 (nodes 12..17)
    assert(r.ok)
    assert(r.community == (12 until 18).toSet, r.community.toSeq.sorted.toString)
    assert(math.abs(r.score - 2.411111) < 1e-5)
  }
  test("FPA without pruning also resolves the 6-clique") {
    val g = GraphGen.ringOfCliques(30, 6)
    val r = Peeler.fpaNoPrune(g, Seq(14))
    assert(r.ok && r.community == (12 until 18).toSet)
  }
  test("FPA-DMG resolves the 6-clique as well") {
    val g = GraphGen.ringOfCliques(30, 6)
    val r = Peeler.fpaDMG(g, Seq(14))
    assert(r.ok && r.community == (12 until 18).toSet)
  }

  // ------------------------------------------------------------- karate
  test("FPA on karate finds a sub-faction community containing the query") {
    val gt = GraphGen.karate
    val r = Peeler.fpa(gt.graph, Seq(0))
    assert(r.ok && r.community.contains(0))
    assert(r.community.size < 34, "must not return the whole graph")
    val overlap = (r.community intersect gt.communities(0)).size.toDouble / r.community.size
    assert(overlap > 0.5, s"community=${r.community.toSeq.sorted}")
  }
  test("NCA on karate returns a valid connected community") {
    val gt = GraphGen.karate
    val r = Peeler.nca(gt.graph, Seq(33))
    assert(r.ok && r.community.contains(33))
    assert(gt.graph.isConnected(toBits(r.community)))
  }

  // -------------------------------------------------- failure / edge cases
  test("queries in different components fail gracefully") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (2, 3)))
    val r = Peeler.fpa(g, Seq(0, 2))
    assert(!r.ok)
  }
  test("invalid query id is rejected") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1)))
    intercept[IllegalArgumentException](Peeler.fpa(g, Seq(7)))
    intercept[IllegalArgumentException](Peeler.fpa(g, Seq.empty))
  }
  test("singleton component: community is the query itself") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1)))
    val r = Peeler.fpa(g, Seq(3))
    assert(r.ok && r.community == Set(3))
  }
  test("a clique stays intact under every variant") {
    val g = LocalGraph.fromEdges(5, for { i <- 0 until 5; j <- i + 1 until 5 } yield (i, j))
    for (r <- Seq(Peeler.fpa(g, Seq(0)), Peeler.nca(g, Seq(0)), Peeler.ncaDR(g, Seq(0)),
      Peeler.fpaDMG(g, Seq(0)), Peeler.fpaNoPrune(g, Seq(0)))) {
      assert(r.ok && r.community == (0 until 5).toSet)
    }
  }

  // ------------------------------------------- invariants on random graphs
  private val variants: Seq[(String, (LocalGraph, Seq[Int]) => Peeler.Result)] = Seq(
    ("NCA", (g, q) => Peeler.nca(g, q)),
    ("NCA-DR", (g, q) => Peeler.ncaDR(g, q)),
    ("FPA", (g, q) => Peeler.fpa(g, q)),
    ("FPA-DMG", (g, q) => Peeler.fpaDMG(g, q)),
    ("FPA-noprune", (g, q) => Peeler.fpaNoPrune(g, q)))

  for (seed <- 1 to 6; (name, algo) <- variants) {
    test(s"$name invariants on random graph seed=$seed") {
      val g = randomConnected(60, 0.05, seed)
      val rnd = new Random(seed * 31)
      val q = Seq(rnd.nextInt(60))
      val r = algo(g, q)
      assert(r.ok)
      assert(q.forall(r.community.contains), "community must contain the queries")
      assert(g.isConnected(toBits(r.community)), "community must be connected")
      // the reported score must equal DM recomputed from scratch
      assert(math.abs(r.score - Modularity.dmOf(g, toBits(r.community))) < 1e-9,
        "incremental DM bookkeeping must match recomputation")
    }
  }

  for (seed <- 1 to 4; (name, algo) <- variants) {
    test(s"$name multi-query invariants seed=$seed") {
      val g = randomConnected(80, 0.04, seed + 77)
      val rnd = new Random(seed * 17)
      val q = Seq.fill(3)(rnd.nextInt(80)).distinct
      val r = algo(g, q)
      assert(r.ok)
      assert(q.forall(r.community.contains))
      assert(g.isConnected(toBits(r.community)))
    }
  }

  // ------------------------------------------- slow reference peel
  private case class Ref(community: Set[Int], score: Double, removed: Int, prefix: Int, cutTops: Int) {
    def matches(r: Peeler.Result): Boolean =
      r.ok && r.community == community && r.score == score && r.removed == removed
  }
  /** Algorithm 1 with every quantity recomputed from scratch at each step:
    * l_S, d_S and |S| through `Modularity.dmOf`, k_{v,S} through
    * `degreeWithin`, the protected paths from a min-id parent per node on a
    * BFS from min(Q). Same tie-breaks as `Peeler`: the latest best-scoring S
    * wins, Λ or Θ ties go to the farther then smaller node, and the first
    * best prefix wins. `removed` counts the component's nodes outside the
    * best S; `prefix` is -1 without pruning; `cutTops` counts the NCA steps
    * whose best-ranked pool node is a cut vertex, so that the removed node
    * is not the top one.
    */
  private def naivePeel(g: LocalGraph, q: Seq[Int], rule: Peeler.RemovableRule,
                        goodness: Peeler.Goodness, layerPrune: Boolean): Ref = {
    import Ordering.Double.TotalOrdering
    val comp = g.componentOf(q.min)
    assert(q.forall(comp))
    val prot = mutable.BitSet.empty ++= q
    if (rule == Peeler.FarthestLayer) {
      val d0 = g.bfsDist(Seq(q.min))
      def parent(v: Int): Int = g.adj(v).filter(w => d0(w) == d0(v) - 1).minOption.getOrElse(-1)
      for (v0 <- q) { var v = v0; while (v != -1) { prot += v; v = parent(v) } }
    }
    val dist = g.bfsDist(prot)
    val s = comp.clone()
    var best = Modularity.dmOf(g, s); var bestSet = s.toSet
    def remove(v: Int): Unit = {
      s -= v
      val sc = Modularity.dmOf(g, s)
      if (sc >= best) { best = sc; bestSet = s.toSet }
    }
    def top(pool: Iterable[Int]): Int = {
      val dS = g.degreeSum(s)
      def score(v: Int) = goodness match {
        case Peeler.DMGain => Modularity.gain(g.degreeWithin(v, s), g.degree(v), dS, g.m)
        case Peeler.DensityRatio => Modularity.ratio(g.degree(v), g.degreeWithin(v, s))
      }
      pool.minBy(v => (-score(v), -dist(v), v))
    }
    def peelLayer(t: Int): Unit = {
      var cand = s.filter(dist(_) == t)
      while (cand.nonEmpty) {
        val v = top(cand)
        cand -= v; remove(v)
      }
    }
    val maxDist = comp.map(dist(_)).max
    var chosen = -1 // the pruning prefix
    var cutTops = 0
    rule match {
      case Peeler.NonArticulation =>
        var more = true
        while (more) {
          val art = g.articulationPoints(s)
          val pool = s.toSeq.filter(v => !prot(v))
          val cand = pool.filter(v => !art(v))
          more = cand.nonEmpty
          if (more) {
            if (art(top(pool))) cutTops += 1
            remove(top(cand))
          }
        }
      case Peeler.FarthestLayer if layerPrune =>
        def prefix(t: Int) = comp.filter(dist(_) <= t)
        val bestT = (0 to maxDist).map(t => Modularity.dmOf(g, prefix(t))).zipWithIndex
          .maxBy { case (sc, t) => (sc, -t) }._2
        chosen = bestT
        s.filterInPlace(dist(_) <= bestT)
        val sc = Modularity.dmOf(g, s)
        if (sc >= best) { best = sc; bestSet = s.toSet }
        if (bestT > 0) peelLayer(bestT)
      case Peeler.FarthestLayer =>
        (maxDist to 1 by -1).foreach(peelLayer)
    }
    Ref(bestSet, best, comp.size - bestSet.size, chosen, cutTops)
  }

  private val referenced: Seq[(String, Peeler.RemovableRule, Peeler.Goodness, Boolean,
      (LocalGraph, Seq[Int]) => Peeler.Result)] = Seq(
    ("FPA-noprune", Peeler.FarthestLayer, Peeler.DensityRatio, false, (g, q) => Peeler.fpaNoPrune(g, q)),
    ("FPA", Peeler.FarthestLayer, Peeler.DensityRatio, true, (g, q) => Peeler.fpa(g, q)),
    ("FPA-DMG", Peeler.FarthestLayer, Peeler.DMGain, true, (g, q) => Peeler.fpaDMG(g, q)),
    ("NCA", Peeler.NonArticulation, Peeler.DMGain, false, (g, q) => Peeler.nca(g, q)),
    ("NCA-DR", Peeler.NonArticulation, Peeler.DensityRatio, false, (g, q) => Peeler.ncaDR(g, q)))

  for ((name, rule, goodness, prune, algo) <- referenced; nq <- Seq(1, 2, 3)) {
    test(s"$name equals the from-scratch reference peel, |Q|=$nq") {
      // the graphs and queries of the invariant tests above, and at |Q| <= 2
      // the ring of cliques, where nearly every score ties
      val random =
        if (nq == 1) (1 to 6).map(seed => (randomConnected(60, 0.05, seed), new Random(seed * 31)))
        else if (nq == 3) (1 to 4).map(seed => (randomConnected(80, 0.04, seed + 77), new Random(seed * 17)))
        else Nil
      val ring = if (nq > 2) Nil else (1 to 3).map(seed => (GraphGen.ringOfCliques(30, 6), new Random(seed * 7 + nq)))
      for ((g, rnd) <- random ++ ring) {
        val q = Seq.fill(nq)(rnd.nextInt(g.n)).distinct
        val r = algo(g, q)
        assert(naivePeel(g, q, rule, goodness, prune).matches(r), s"q=$q")
      }
    }
  }

  // NCA and NCA-DR check only their top-ranked node and fall back to the
  // articulation points when it is a cut vertex. Here the second step's top
  // node (4, under both Λ and Θ) is one: the leaf 6 hangs off it.
  private val cutTop = LocalGraph.fromEdges(7,
    Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)))
  // Hundreds of steps on LFR graphs, nearly all taking the checked top node.
  private def lfrCases(nq: Int): Seq[(LocalGraph, Seq[Int])] = (1 to 2).map { seed =>
    val g = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed).graph
    val rnd = new Random(seed * 13 + nq)
    (g, Seq.fill(nq)(rnd.nextInt(g.n)).distinct)
  }
  for ((name, goodness, algo) <- Seq[(String, Peeler.Goodness, (LocalGraph, Seq[Int]) => Peeler.Result)](
      ("NCA", Peeler.DMGain, (g, q) => Peeler.nca(g, q)),
      ("NCA-DR", Peeler.DensityRatio, (g, q) => Peeler.ncaDR(g, q)))) {
    test(s"$name equals the reference peel when its top-ranked node is a cut vertex") {
      val r = algo(cutTop, Seq(0))
      assert(naivePeel(cutTop, Seq(0), Peeler.NonArticulation, goodness, false).matches(r))
    }
    for (nq <- Seq(1, 2)) {
      test(s"$name equals the reference peel on LFR(300), |Q|=$nq") {
        for ((g, q) <- lfrCases(nq)) {
          val r = algo(g, q)
          assert(naivePeel(g, q, Peeler.NonArticulation, goodness, false).matches(r), s"q=$q")
        }
      }
      // On graphs shaped like the Fig 14 benchmark's the top-ranked node is
      // often a cut vertex, so the filtered ranking runs many times per query.
      test(s"$name equals the reference peel on LFR(1000) through cut-vertex tops, |Q|=$nq") {
        val cutTops = (1 to 3).map { seed =>
          val g = GraphGen.lfr(1000, 20, 200, 0.4, 20, 1000, seed = seed).graph
          val rnd = new Random(seed * 29 + nq)
          val q = Seq.fill(nq)(rnd.nextInt(g.n)).distinct
          val ref = naivePeel(g, q, Peeler.NonArticulation, goodness, false)
          assert(ref.matches(algo(g, q)), s"seed=$seed q=$q")
          ref.cutTops
        }
        assert(cutTops.sum > 0, "no step ranked a cut vertex first")
      }
    }
  }

  // The farthest-layer variants at depth: several protected paths, and S
  // started at the chosen prefix rather than peeled down to it.
  for ((name, _, goodness, prune, algo) <- referenced.take(3); nq <- Seq(2, 4, 8)) {
    test(s"$name equals the reference peel on LFR(300), |Q|=$nq") {
      for (seed <- 1 to 3) {
        val g = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed).graph
        val rnd = new Random(seed * 19 + nq)
        val q = Seq.fill(nq)(rnd.nextInt(g.n)).distinct
        assert(naivePeel(g, q, Peeler.FarthestLayer, goodness, prune).matches(algo(g, q)), s"q=$q")
      }
    }
  }
  // Q is a whole 6-clique of the ring, which layer 1 only dilutes; in K5 from
  // one node the best prefix is the whole graph.
  private val prefixEnds = Seq(
    ("layer 0", GraphGen.ringOfCliques(30, 6), 12 until 18, 0),
    ("the last layer", LocalGraph.fromEdges(5, for { i <- 0 until 5; j <- i + 1 until 5 } yield (i, j)),
      Seq(0), 1))
  for ((name, _, goodness, _, algo) <- referenced.slice(1, 3); (where, g, q, t) <- prefixEnds) {
    test(s"$name equals the reference peel when the best prefix is $where") {
      val ref = naivePeel(g, q, Peeler.FarthestLayer, goodness, layerPrune = true)
      assert(ref.prefix == t && ref.matches(algo(g, q)))
    }
  }

  // Q is a set: shuffling it, or repeating some of its nodes, changes nothing
  private lazy val orderCases: Seq[(LocalGraph, Seq[Int])] = for {
    seed <- 1 to 3
    gt = GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = seed)
    ctx = new GraphCtx(gt.graph)
    k <- Seq(2, 4, 8)
    (q, _) <- QueryGen.querySets(gt, ctx, 4, k, seed = 70 + k)
  } yield (gt.graph, q)
  for ((name, algo) <- variants) {
    test(s"$name answers do not depend on the order or repeats of Q") {
      def key(r: Peeler.Result) = (r.community, java.lang.Double.doubleToLongBits(r.score), r.removed, r.ok)
      for ((g, q) <- orderCases) {
        val messy = new Random(q.sum).shuffle(q ++ q.take(2))
        assert(key(algo(g, messy)) == key(algo(g, q)), s"q=$messy")
      }
    }
  }

  test("three queries with one in another component fail, also when duplicated") {
    val g = LocalGraph.fromEdges(7, Seq((0, 1), (1, 2), (2, 3), (4, 5), (5, 6)))
    for (q <- Seq(Seq(0, 3, 5), Seq(0, 5, 3), Seq(0, 5, 5), Seq(0, 3, 5, 5)); (name, algo) <- variants)
      assert(!algo(g, q).ok, s"$name q=$q")
    for (q <- Seq(Seq(0, 3, 3), Seq(0, 0, 2)); (name, algo) <- variants) {
      val r = algo(g, q)
      assert(r.ok && q.forall(r.community.contains), s"$name q=$q")
    }
  }

  test("FPA best intermediate beats (or ties) the full component DM") {
    val g = randomConnected(100, 0.05, 5)
    val comp = g.componentOf(7)
    val r = Peeler.fpa(g, Seq(7))
    assert(r.score >= Modularity.dmOf(g, comp) - 1e-12)
  }

  test("NCA result is no worse than the full component DM") {
    val g = randomConnected(60, 0.06, 9)
    val comp = g.componentOf(3)
    val r = Peeler.nca(g, Seq(3))
    assert(r.score >= Modularity.dmOf(g, comp) - 1e-12)
  }

  test("objective=CM tracks classic modularity of the returned community") {
    val g = randomConnected(60, 0.06, 12)
    val r = Peeler.fpa(g, Seq(0), Peeler.CmObjective)
    assert(math.abs(r.score - Modularity.cmOf(g, toBits(r.community))) < 1e-9)
  }
  test("objective=GMD tracks generalized modularity density") {
    val g = randomConnected(60, 0.06, 13)
    val r = Peeler.fpa(g, Seq(0), Peeler.GmdObjective)
    assert(math.abs(r.score - Modularity.gmdOf(g, toBits(r.community))) < 1e-9)
  }

  test("determinism: same input, same output") {
    val g = randomConnected(70, 0.05, 21)
    val a = Peeler.fpa(g, Seq(5)); val b = Peeler.fpa(g, Seq(5))
    assert(a.community == b.community && a.score == b.score)
    val c = Peeler.nca(g, Seq(5)); val d = Peeler.nca(g, Seq(5))
    assert(c.community == d.community)
  }

  test("FPA on LFR recovers the planted community reasonably") {
    val gt = GraphGen.lfr(400, 12, 50, 0.25, 20, 80, seed = 31)
    val comm = gt.communities.maxBy(_.size)
    val q = comm.head
    val r = Peeler.fpa(gt.graph, Seq(q))
    val f1 = repro.eval.Metrics.f1(r.community, comm)
    assert(f1 > 0.3, s"f1=$f1 size=${r.community.size} truth=${comm.size}")
  }

  test("protected Steiner path keeps multi-query communities connected in FPA") {
    // path graph: queries at the two ends; FPA must keep the whole path
    val g = LocalGraph.fromEdges(7, (0 until 6).map(i => (i, i + 1)))
    val r = Peeler.fpa(g, Seq(0, 6))
    assert(r.ok && (0 to 6).forall(r.community.contains))
  }
}
