package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** The paper's Algorithm-1 top-down greedy peeling framework, parameterized
  * by the two key functions of Figure 3:
  *
  *  - removable-node rule: (a) non-articulation nodes or (b) farthest nodes;
  *  - best-node rule: (c) density modularity gain Λ or (d) density ratio Θ;
  *
  * plus the Section-5.7 layer-based pruning strategy. Presets:
  *   NCA = (a)+(c), NCA-DR = (a)+(d), FPA-DMG = (b)+(c)+prune,
  *   FPA = (b)+(d)+prune, FPA-noprune = (b)+(d).
  *
  * `peel` is one loop over the two functions. The removable-node rule fills
  * a pool: (a) S minus the protected nodes, whose top node must pass
  * `CutCheck.bestNonCut`; (b) the outermost layer of S that is left. The
  * best-node rule ranks the pool in one order (higher score, then farther,
  * then smaller id) with indexed heaps of node ids, in which v moves up in
  * place when a neighbour of v leaves S: Θ in one heap; Λ, which also moves
  * with d_S, in one heap per global degree, within which it falls as
  * k_{v,S} grows.
  *
  * `run` prepares the query side (same-component check, protected paths,
  * distances, layer stats and the prefix choice) and hands the chosen
  * members to `peel`, which the Spark pipeline also calls on the distance
  * prefix it collects, scoring DM against the full graph.
  */
object Peeler {

  sealed trait RemovableRule
  case object NonArticulation extends RemovableRule
  case object FarthestLayer extends RemovableRule

  sealed trait Goodness
  case object DMGain extends Goodness
  case object DensityRatio extends Goodness

  /** Selects the best intermediate subgraph from (l, d, |S|, |E|). */
  trait Objective extends Serializable { def apply(l: Long, d: Long, s: Long, m: Long): Double }
  val DmObjective: Objective = (l, d, s, m) => Modularity.dm(l, d, s, m)
  val CmObjective: Objective = (l, d, s, m) => Modularity.cm(l, d, m)
  val GmdObjective: Objective = (l, d, s, m) => Modularity.gmd(l, d, s, m)

  final case class Result(community: Set[Int], score: Double, removed: Int,
                          ok: Boolean, note: String = "")

  def run(g: LocalGraph, queries: Seq[Int], rule: RemovableRule, goodness: Goodness,
          layerPrune: Boolean, objective: Objective = DmObjective): Result = {
    require(queries.nonEmpty, "need at least one query node")
    queries.foreach(q => require(q >= 0 && q < g.n, s"query $q out of range [0,${g.n})"))
    val qs = queries.distinct.sorted // rooted at min(Q), so Q's order cannot change the answer

    // protected nodes: the queries, plus (FPA, |Q|>1) the BFS-tree paths
    // linking them to min(Q); the same BFS tells whether Q shares a component
    val prot = mutable.BitSet.empty ++= qs
    if (qs.length > 1) g.bfsParentsTo(qs.head, qs.tail) match {
      case None =>
        return Result(qs.toSet, Double.NaN, 0, ok = false,
          "query nodes are not in the same connected component")
      case Some(parents) =>
        if (rule == FarthestLayer)
          protectPaths(qs.map(_.toLong), v => parents(v.toInt)).foreach(v => prot += v.toInt)
    }
    // reaches exactly the queried component, in layer order
    val layers = g.bfsLayers(prot)

    // Section 5.7: S starts as the best distance prefix, or else as the
    // whole component; the nodes outside it count as removed. `bestPrefix`
    // has scored every longer prefix, so no better S lies between them.
    val prefix = if (rule != FarthestLayer || !layerPrune) -1
      else bestPrefix(layers.nNodes, layers.sumDeg, layers.nEdges, g.m, objective)
    val size = if (prefix < 0) layers.reached else layers.nNodes.iterator.take(prefix + 1).sum.toInt
    val res = peel(g, g.degree, g.m, prot, java.util.Arrays.copyOf(layers.order, size), layers.dist,
      rule, goodness, objective, prefix)
    res.copy(removed = res.removed + layers.reached - size)
  }

  /** Section 5.6: the queries plus every node on the BFS-tree path from each
    * query up to the root, so that removing farthest layers never
    * disconnects Q. `parent` is -1 at the root.
    */
  private[repro] def protectPaths(queries: Seq[Long], parent: Long => Long): mutable.Set[Long] = {
    val prot = mutable.Set.empty[Long] ++= queries
    for (q <- queries) {
      // a walk may stop at any protected node: its own path is walked too
      var v = parent(q)
      while (v != -1L && !prot(v)) { prot += v; v = parent(v) }
    }
    prot
  }

  /** Section 5.7: the first distance layer t whose prefix (layers 0..t)
    * scores best, from per-layer node counts, degree sums and edge counts.
    */
  private[core] def bestPrefix(nNodes: Array[Long], sumDeg: Array[Long], nEdges: Array[Long],
                               mE: Long, objective: Objective): Int = {
    var cl = 0L; var cd = 0L; var cn = 0L
    var bestT = 0; var best = Double.NegativeInfinity
    var t = 0
    while (t < nNodes.length) {
      cl += nEdges(t); cd += sumDeg(t); cn += nNodes(t)
      val sc = objective(cl, cd, cn, mE)
      if (sc > best) { best = sc; bestT = t }
      t += 1
    }
    bestT
  }

  /** Algorithm 1 on S = `members`, with k_{v,S} counted inside S. DM is
    * scored with the global degrees `deg` and edge count `mE`. The NCA rule
    * needs S to be connected. With the farthest-layer rule, `prefix` >= 0
    * says that S is the distance prefix 0..prefix, and only its outermost
    * layer is peeled; -1 peels every layer. `removed` counts from S.
    */
  private[core] def peel(g: LocalGraph, deg: Array[Int], mE: Long, prot: mutable.BitSet,
                         members: Array[Int], dist: Array[Int], rule: RemovableRule,
                         goodness: Goodness, objective: Objective, prefix: Int): Result = {
    // incremental state: S, k_{v,S} (-1 once v has left S), l_S, d_S, |S|
    val s = mutable.BitSet.empty ++= members
    val kv = new Array[Int](g.n)
    var lS = 0L; var dS = 0L; var maxDeg = 0
    members.foreach { v =>
      kv(v) = g.degreeWithin(v, s); lS += kv(v); dS += deg(v); maxDeg = math.max(maxDeg, deg(v))
    }
    lS /= 2
    var size = members.length.toLong
    val removed = new Array[Int](members.length); var nRemoved = 0
    var bestScore = objective(lS, dS, size, mE); var bestCount = 0

    // removable-node rule: S minus `prot`, or S's layer `layer`
    val nca = rule == NonArticulation
    var layer = if (nca) 0 else members.map(dist).max + 1 // counts down to max(1, prefix)

    // best-node rule: the pool in indexed binary heaps of node ids, one per
    // class, each ranked by `before`. Class c's heap is heap(base(c) ...
    // base(c) + used(c) - 1), v sits at heap(base(c) + pos(v)), pos(v) is -1
    // outside the pool, and a fall of k_{v,S} moves v up in place.
    //  - Θ: one class. Θ_v only grows as k_{v,S} falls.
    //  - Λ: one class per global degree. For a fixed d_v, Λ_v strictly falls
    //    as k_{v,S} grows, whatever d_S is, so a change of d_S keeps each
    //    class's order. `Modularity.gain` is exact in doubles, so this holds
    //    for the computed Λ too, while 4·mE·k_{v,S} and 2·d_S·d_v stay below
    //    2^53.
    val dmg = goodness == DMGain
    def cls(v: Int): Int = if (dmg) deg(v) else 0
    val base = new Array[Int](if (dmg) maxDeg + 2 else 2) // class c's capacity counted at c + 1
    for (v <- members) base(cls(v) + 1) += 1
    for (c <- 1 until base.length) base(c) += base(c - 1)
    val used = new Array[Int](base.length - 1)
    val heap = new Array[Int](members.length)
    val pos = Array.fill(g.n)(-1)
    /** Higher score, then farther, then smaller id. */
    def before(a: Int, b: Int): Boolean = {
      val c = java.lang.Double.compare(score(b), score(a))
      if (c != 0) c < 0 else if (dist(a) != dist(b)) dist(a) > dist(b) else a < b
    }
    def score(v: Int): Double =
      if (dmg) Modularity.gain(kv(v), deg(v), dS, mE) else Modularity.ratio(deg(v), kv(v))
    def at(v: Int, p: Int): Unit = { heap(base(cls(v)) + p) = v; pos(v) = p }
    def up(v: Int): Unit = {
      val b = base(cls(v)); var p = pos(v)
      while (p > 0 && before(v, heap(b + (p - 1) / 2))) { at(heap(b + (p - 1) / 2), p); p = (p - 1) / 2 }
      at(v, p)
    }
    def down(v: Int): Unit = {
      val c = cls(v); val b = base(c); var p = pos(v); var done = false
      while (!done) {
        val l = 2 * p + 1
        val w = if (l + 1 < used(c) && before(heap(b + l + 1), heap(b + l))) l + 1 else l // the better child
        if (w < used(c) && before(heap(b + w), v)) { at(heap(b + w), p); p = w } else done = true
      }
      at(v, p)
    }
    def fill(): Unit = {
      var i = 0
      while (i < members.length) {
        val v = members(i) // prot(v) would box v
        if (if (nca) !prot.contains(v) else dist(v) == layer) { pos(v) = used(cls(v)); used(cls(v)) += 1; up(v) }
        i += 1
      }
    }
    /** The best pool node passing `ok`, or -1: the best of the class tops
      * that pass, and of the best passing node of each class whose top does
      * not, found by a scan.
      */
    def best(ok: Int => Boolean): Int = {
      var bestV = -1; var c = 0
      while (c < used.length) {
        var v = -1; var i = 0
        if (used(c) > 0 && ok(heap(base(c)))) v = heap(base(c))
        else while (i < used(c)) {
          val w = heap(base(c) + i)
          if (ok(w) && (v == -1 || before(w, v))) v = w
          i += 1
        }
        if (v != -1 && (bestV == -1 || before(v, bestV))) bestV = v
        c += 1
      }
      bestV
    }

    // S starts as a whole component under NonArticulation and loses only
    // non-cut nodes, so `bestNonCut` needs to check only the top node; the
    // check owns S, rooted at a query
    val cut = if (nca) { fill(); g.cutCheck(s, prot.head) } else null
    def remove(v: Int): Unit = {
      val c = cls(v)
      used(c) -= 1
      val last = heap(base(c) + used(c))
      if (last != v) { at(last, pos(v)); up(last); down(last) }
      pos(v) = -1
      if (nca) cut.remove(v) else s -= v
      lS -= kv(v); dS -= deg(v); size -= 1; kv(v) = -1
      val a = g.adj(v); var i = 0
      while (i < a.length) {
        val w = a(i) // k_{w,S} > 0 iff w is in S, as v is
        if (kv(w) > 0) { kv(w) -= 1; if (pos(w) >= 0) up(w) }
        i += 1
      }
      removed(nRemoved) = v; nRemoved += 1
      val sc = objective(lS, dS, size, mE)
      if (sc >= bestScore) { bestScore = sc; bestCount = nRemoved }
    }

    val rank: (Int => Boolean) => Int = best
    val any: Int => Boolean = _ => true
    def next(): Int =
      if (nca) cut.bestNonCut(rank)
      else {
        var v = best(any)
        while (v == -1 && layer > math.max(1, prefix)) { layer -= 1; fill(); v = best(any) }
        v
      }
    var v = next()
    while (v != -1) { remove(v); v = next() }

    // the best S is the final S plus everything removed after it
    while (nRemoved > bestCount) { nRemoved -= 1; s += removed(nRemoved) }
    Result(s.toSet, bestScore, bestCount, ok = true)
  }

  // ------------------------------------------------------------- presets
  /** Non-articulation Cancellation Algorithm (Section 5.4). */
  def nca(g: LocalGraph, queries: Seq[Int], objective: Objective = DmObjective): Result =
    run(g, queries, NonArticulation, DMGain, layerPrune = false, objective)

  /** NCA with density ratio (variant (a)+(d), Section 6.2.5). */
  def ncaDR(g: LocalGraph, queries: Seq[Int]): Result =
    run(g, queries, NonArticulation, DensityRatio, layerPrune = false)

  /** Fast Peeling Algorithm with layer pruning (Sections 5.5 + 5.7). */
  def fpa(g: LocalGraph, queries: Seq[Int], objective: Objective = DmObjective): Result =
    run(g, queries, FarthestLayer, DensityRatio, layerPrune = true, objective)

  /** FPA without the pruning strategy (Fig 13 comparator). */
  def fpaNoPrune(g: LocalGraph, queries: Seq[Int], objective: Objective = DmObjective): Result =
    run(g, queries, FarthestLayer, DensityRatio, layerPrune = false, objective)

  /** FPA with density-modularity gain (variant (b)+(c), Section 6.2.5). */
  def fpaDMG(g: LocalGraph, queries: Seq[Int]): Result =
    run(g, queries, FarthestLayer, DMGain, layerPrune = true)
}
