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
  * then smaller id) with lazy heaps, as k_{v,S} moves only when a neighbour
  * of v leaves S: Θ in one heap; Λ, which also moves with d_S, in one heap
  * per global degree, within which it falls as k_{v,S} grows.
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

  /** The best-node order, negative when node a (score sa, distance da)
    * ranks before node b: higher score, then farther, then smaller id.
    */
  private def order(sa: Double, da: Int, a: Int, sb: Double, db: Int, b: Int): Int = {
    val c = java.lang.Double.compare(sb, sa)
    if (c != 0) c else if (da != db) Integer.compare(db, da) else Integer.compare(a, b)
  }
  private final case class Entry(r: Double, d: Int, v: Int)
  private val entryOrder: java.util.Comparator[Entry] =
    (a: Entry, b: Entry) => order(a.r, a.d, a.v, b.r, b.d, b.v)

  def run(g: LocalGraph, queries: Seq[Int], rule: RemovableRule, goodness: Goodness,
          layerPrune: Boolean, objective: Objective = DmObjective): Result = {
    require(queries.nonEmpty, "need at least one query node")
    queries.foreach(q => require(q >= 0 && q < g.n, s"query $q out of range [0,${g.n})"))

    // protected nodes: the queries, plus (FPA, |Q|>1) the BFS-tree paths
    // linking them to q0; the same BFS tells whether Q shares a component
    val prot = mutable.BitSet.empty ++= queries
    if (queries.length > 1) g.bfsParentsTo(queries.head, queries.tail) match {
      case None =>
        return Result(queries.toSet, Double.NaN, 0, ok = false,
          "query nodes are not in the same connected component")
      case Some(parents) =>
        if (rule == FarthestLayer)
          protectPaths(queries.map(_.toLong), v => parents(v.toInt)).foreach(v => prot += v.toInt)
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

    // removable-node rule: S minus `prot`, or S's layer `layer`; `left` of
    // the pool are still in S
    val nca = rule == NonArticulation
    var layer = if (nca) 0 else members.map(dist).max + 1 // counts down to max(1, prefix)
    def pooled(v: Int): Boolean = if (nca) !prot.contains(v) else dist(v) == layer // prot(v) would box v
    var left = 0

    // best-node rule: lazy heaps of the pool, in `order`, where each change
    // of k_{v,S} pushes v's fresh entry.
    //  - Θ: one heap. Θ_v only grows as S shrinks, so v's fresh entry ranks
    //    above its older ones, and those reach the top only after v has
    //    left S.
    //  - Λ: one heap per global degree, with entries scored -k_{v,S}. For a
    //    fixed d_v, Λ_v strictly falls as k_{v,S} grows, whatever d_S is, so
    //    a heap ranks its class by Λ, and Λ is computed only at the class
    //    tops. An entry is stale once its k is not v's; k only falls, so a
    //    stale entry ranks below v's fresh one.
    val dmg = goodness == DMGain
    val heaps = new Array[java.util.PriorityQueue[Entry]](if (dmg) maxDeg + 1 else 1)
    val classes = mutable.ArrayBuffer.empty[java.util.PriorityQueue[Entry]] // the heaps made
    def heapOf(v: Int): java.util.PriorityQueue[Entry] = {
      val c = if (dmg) deg(v) else 0
      if (heaps(c) == null) {
        heaps(c) = new java.util.PriorityQueue[Entry](if (dmg) 11 else math.max(1, members.length), entryOrder)
        classes += heaps(c)
      }
      heaps(c)
    }
    def push(v: Int): Unit = heapOf(v).add(
      if (dmg) Entry(-kv(v), dist(v), v) else Entry(Modularity.ratio(deg(v), kv(v)), dist(v), v))
    def stale(e: Entry): Boolean = if (dmg) kv(e.v) != -e.r else kv(e.v) < 0
    def fill(): Unit = {
      left = 0
      members.foreach(v => if (pooled(v)) { left += 1; push(v) })
    }
    /** The top live entry of `h` whose node passes `ok`, or null. Stale
      * entries are dropped; live ones that fail `ok` are put back.
      */
    def top(h: java.util.PriorityQueue[Entry], ok: Int => Boolean): Entry = {
      var held: List[Entry] = Nil
      var e = h.peek()
      while (e != null && (stale(e) || !ok(e.v))) {
        h.poll(); if (!stale(e)) held ::= e
        e = h.peek()
      }
      while (held.nonEmpty) { h.add(held.head); held = held.tail }
      e
    }
    /** The best pool node passing `ok`, or -1: Θ's heap top, or the best
      * of the Λ class tops.
      */
    def best(ok: Int => Boolean): Int =
      if (left == 0) -1
      else if (!dmg) { val e = top(heaps(0), ok); if (e == null) -1 else e.v }
      else {
        var bestV = -1; var bestSc = 0.0; var bestD = 0
        var i = 0
        while (i < classes.length) {
          val e = top(classes(i), ok)
          if (e != null) {
            val sc = Modularity.gain(kv(e.v), deg(e.v), dS, mE)
            if (bestV == -1 || order(sc, e.d, e.v, bestSc, bestD, bestV) < 0) {
              bestV = e.v; bestSc = sc; bestD = e.d
            }
          }
          i += 1
        }
        bestV
      }

    // S starts as a whole component under NonArticulation and loses only
    // non-cut nodes, so `bestNonCut` needs to check only the top node; the
    // check owns S, rooted at a query
    val cut = if (nca) { fill(); g.cutCheck(s, prot.head) } else null
    def remove(v: Int): Unit = {
      val h = heapOf(v)
      if (h.peek().v == v) h.poll()
      if (nca) cut.remove(v) else s -= v
      left -= 1
      lS -= kv(v); dS -= deg(v); size -= 1; kv(v) = -1
      val a = g.adj(v); var i = 0
      while (i < a.length) {
        val w = a(i) // k_{w,S} > 0 iff w is in S, as v is
        if (kv(w) > 0) { kv(w) -= 1; if (pooled(w)) push(w) }
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
        while (left == 0 && layer > math.max(1, prefix)) { layer -= 1; fill() }
        best(any)
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
