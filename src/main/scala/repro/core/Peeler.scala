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
  type Objective = (Long, Long, Long, Long) => Double
  val DmObjective: Objective = (l, d, s, m) => Modularity.dm(l, d, s, m)
  val CmObjective: Objective = (l, d, s, m) => Modularity.cm(l, d, m)
  val GmdObjective: Objective = (l, d, s, m) => Modularity.gmd(l, d, s, m)

  final case class Result(community: Set[Int], score: Double, removed: Int,
                          millis: Long, ok: Boolean, note: String = "")

  private final case class Entry(r: Double, v: Int)
  private val entryOrder: java.util.Comparator[Entry] = (a: Entry, b: Entry) => {
    val c = java.lang.Double.compare(b.r, a.r) // max-heap on ratio
    if (c != 0) c else Integer.compare(a.v, b.v) // then smaller id first
  }

  def run(g: LocalGraph, queries: Seq[Int], rule: RemovableRule, goodness: Goodness,
          layerPrune: Boolean, objective: Objective = DmObjective): Result = {
    val t0 = System.nanoTime()
    def elapsedMs: Long = (System.nanoTime() - t0) / 1000000L
    require(queries.nonEmpty, "need at least one query node")
    queries.foreach(q => require(q >= 0 && q < g.n, s"query $q out of range [0,${g.n})"))

    // protected nodes: the queries, plus (FPA, |Q|>1) the BFS-tree paths
    // linking them to q0; the same BFS tells whether Q shares a component
    val prot = mutable.BitSet.empty ++= queries
    if (queries.length > 1) g.bfsParentsTo(queries.head, queries.tail) match {
      case None =>
        return Result(queries.toSet, Double.NaN, 0, elapsedMs, ok = false,
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
    res.copy(removed = res.removed + layers.reached - size, millis = elapsedMs)
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
    // incremental state: S, k_{v,S}, l_S, d_S, |S|
    val s = mutable.BitSet.empty ++= members
    val kv = new Array[Int](g.n)
    var lS = 0L; var dS = 0L
    members.foreach { v =>
      kv(v) = g.degreeWithin(v, s); lS += kv(v); dS += deg(v)
    }
    lS /= 2
    var size = members.length.toLong

    val removed = mutable.ArrayBuffer.empty[Int]
    var bestScore = objective(lS, dS, size, mE)
    var bestCount = 0

    def removeNode(v: Int): Unit = {
      s -= v
      lS -= kv(v)
      dS -= deg(v)
      size -= 1
      val a = g.adj(v); var i = 0
      while (i < a.length) { val w = a(i); if (s(w)) kv(w) -= 1; i += 1 }
      removed += v
    }
    def consider(): Unit = {
      val sc = objective(lS, dS, size, mE)
      if (sc >= bestScore) { bestScore = sc; bestCount = removed.length }
    }

    rule match {
      case NonArticulation =>
        // S stays connected: it starts as a whole component and loses only
        // non-cut nodes, so `bestNonCut` needs to check only the top node
        val cut = g.cutCheck(s)
        def rank(ok: Int => Boolean): Int = { // higher score, farther, smaller id
          var bestV = -1; var bestSc = Double.NegativeInfinity; var bestD = -1
          s.foreach { v =>
            if (!prot(v) && ok(v)) {
              val sc = goodness match {
                case DMGain => Modularity.gain(kv(v), deg(v), dS, mE)
                case DensityRatio => Modularity.ratio(deg(v), kv(v))
              }
              val better = sc > bestSc ||
                (sc == bestSc && (dist(v) > bestD || (dist(v) == bestD && v < bestV)))
              if (better) { bestV = v; bestSc = sc; bestD = dist(v) }
            }
          }
          bestV
        }
        var continue = true
        while (continue) {
          val bestV = cut.bestNonCut(rank)
          if (bestV == -1) continue = false
          else { removeNode(bestV); consider() }
        }

      case FarthestLayer =>
        var maxDist = 0
        members.foreach(v => if (dist(v) > maxDist) maxDist = dist(v))
        val layers = Array.fill(maxDist + 1)(mutable.ArrayBuffer.empty[Int])
        members.foreach(v => layers(dist(v)) += v)

        def peelLayer(dlev: Int): Unit = {
          val cand = mutable.BitSet.empty
          layers(dlev).foreach(v => if (s(v)) cand += v)
          goodness match {
            case DensityRatio =>
              val pq = new java.util.PriorityQueue[Entry](math.max(1, cand.size), entryOrder)
              cand.foreach(v => pq.add(Entry(Modularity.ratio(deg(v), kv(v)), v)))
              while (cand.nonEmpty) {
                val e = pq.poll()
                val v = e.v
                if (cand(v) && e.r == Modularity.ratio(deg(v), kv(v))) {
                  cand -= v
                  removeNode(v)
                  consider()
                  // Θ is stable: only neighbors of v change; push fresh entries
                  val a = g.adj(v); var i = 0
                  while (i < a.length) {
                    val w = a(i)
                    if (cand(w)) pq.add(Entry(Modularity.ratio(deg(w), kv(w)), w))
                    i += 1
                  }
                }
              }
            case DMGain =>
              // Λ is unstable (d_S changes globally): rescan every iteration
              while (cand.nonEmpty) {
                var bestV = -1; var bestG = Double.NegativeInfinity
                cand.foreach { v =>
                  val gn = Modularity.gain(kv(v), deg(v), dS, mE)
                  if (gn > bestG || (gn == bestG && v < bestV) || bestV == -1) {
                    bestV = v; bestG = gn
                  }
                }
                cand -= bestV
                removeNode(bestV)
                consider()
              }
          }
        }

        // members lie within 0..prefix, so a prefix peels only its last layer
        var dlev = maxDist
        while (dlev >= math.max(1, prefix)) { peelLayer(dlev); dlev -= 1 }
    }

    // the best S is the final S plus everything removed after it
    removed.drop(bestCount).foreach(s += _)
    Result(s.toSet, bestScore, bestCount, 0L, ok = true)
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
