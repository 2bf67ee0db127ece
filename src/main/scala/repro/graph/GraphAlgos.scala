package repro.graph

import scala.collection.mutable

/** Result of a k-truss decomposition: edge list (u < v) and the truss number
  * of each edge. `nodeTrussness(v)` is the max truss number over incident
  * edges (0 for isolated nodes).
  */
final case class TrussResult(edgeU: Array[Int], edgeV: Array[Int], truss: Array[Int], n: Int) {
  lazy val nodeTrussness: Array[Int] = {
    val t = new Array[Int](n)
    var i = 0
    while (i < truss.length) {
      if (truss(i) > t(edgeU(i))) t(edgeU(i)) = truss(i)
      if (truss(i) > t(edgeV(i))) t(edgeV(i)) = truss(i)
      i += 1
    }
    t
  }
  lazy val maxTruss: Int = if (truss.isEmpty) 2 else truss.max

  /** Edges with truss number >= k. */
  def edgesAtLeast(k: Int): Iterator[(Int, Int)] =
    truss.indices.iterator.filter(truss(_) >= k).map(i => (edgeU(i), edgeV(i)))
}

/** Heavier classic graph algorithms used by the baselines. */
object GraphAlgos {

  /** Truss decomposition by support peeling (Wang–Cheng style).
    * The truss number of edge e is the largest k such that e is in the
    * k-truss (every edge in ≥ k−2 triangles). O(m^1.5)-ish.
    */
  def trussDecomposition(g: LocalGraph): TrussResult = {
    val edgesBuf = mutable.ArrayBuffer.empty[(Int, Int)]
    g.edges.foreach(edgesBuf += _)
    val mE = edgesBuf.length
    val eU = new Array[Int](mE); val eV = new Array[Int](mE)
    val id = mutable.HashMap.empty[Long, Int]
    def key(u: Int, v: Int): Long = if (u < v) u.toLong * g.n + v else v.toLong * g.n + u
    var i = 0
    while (i < mE) {
      val (u, v) = edgesBuf(i); eU(i) = u; eV(i) = v; id(key(u, v)) = i; i += 1
    }
    // triangle support per edge via sorted-adjacency intersection
    val sup = new Array[Int](mE)
    i = 0
    while (i < mE) {
      val u = eU(i); val v = eV(i)
      val au = g.adj(u); val av = g.adj(v)
      var a = 0; var b = 0; var s = 0
      while (a < au.length && b < av.length) {
        if (au(a) == av(b)) { s += 1; a += 1; b += 1 }
        else if (au(a) < av(b)) a += 1
        else b += 1
      }
      sup(i) = s; i += 1
    }
    if (mE == 0) return TrussResult(eU, eV, new Array[Int](0), g.n)

    // bucket peel on support
    val maxSup = sup.max
    val bin = new Array[Int](maxSup + 2)
    sup.foreach(s => bin(s) += 1)
    var start = 0
    var s = 0
    while (s <= maxSup) { val c = bin(s); bin(s) = start; start += c; s += 1 }
    val pos = new Array[Int](mE)
    val sorted = new Array[Int](mE)
    i = 0
    while (i < mE) { pos(i) = bin(sup(i)); sorted(pos(i)) = i; bin(sup(i)) += 1; i += 1 }
    s = maxSup
    while (s >= 1) { bin(s) = bin(s - 1); s -= 1 }
    bin(0) = 0

    val alive = Array.fill(mE)(true)
    val truss = new Array[Int](mE)

    def decrement(e: Int, floor: Int): Unit = {
      if (sup(e) > floor) {
        val se = sup(e); val pe = pos(e)
        val pFirst = bin(se); val eFirst = sorted(pFirst)
        if (eFirst != e) {
          pos(e) = pFirst; sorted(pe) = eFirst
          pos(eFirst) = pe; sorted(pFirst) = e
        }
        bin(se) += 1
        sup(e) -= 1
      }
    }

    i = 0
    while (i < mE) {
      val e = sorted(i)
      truss(e) = sup(e) + 2
      alive(e) = false
      val u = eU(e); val v = eV(e)
      val au = g.adj(u); val av = g.adj(v)
      var a = 0; var b = 0
      while (a < au.length && b < av.length) {
        if (au(a) == av(b)) {
          val w = au(a)
          val e1 = id(key(u, w)); val e2 = id(key(v, w))
          if (alive(e1) && alive(e2)) { decrement(e1, sup(e)); decrement(e2, sup(e)) }
          a += 1; b += 1
        } else if (au(a) < av(b)) a += 1
        else b += 1
      }
      i += 1
    }
    TrussResult(eU, eV, truss, g.n)
  }

  /** Exact betweenness (Brandes) in the subgraph induced by `members`,
    * counting only edges `liveEdge` accepts: per node, and per edge keyed
    * (u<v). O(V·E); only for small graphs (GN baseline, case study).
    */
  def betweenness(g: LocalGraph, members: mutable.BitSet,
                  liveEdge: (Int, Int) => Boolean = (_, _) => true)
      : (mutable.HashMap[Int, Double], mutable.HashMap[(Int, Int), Double]) = {
    val perNode = mutable.HashMap.empty[Int, Double]
    members.foreach(v => perNode(v) = 0.0)
    val perEdge = mutable.HashMap.empty[(Int, Int), Double]
    val dist = new Array[Int](g.n)
    val sigma = new Array[Double](g.n)
    val delta = new Array[Double](g.n)
    val preds = Array.fill(g.n)(mutable.ArrayBuffer.empty[Int])
    val order = mutable.ArrayBuffer.empty[Int]
    for (sNode <- members) {
      java.util.Arrays.fill(dist, -1); java.util.Arrays.fill(sigma, 0.0)
      java.util.Arrays.fill(delta, 0.0)
      members.foreach(v => preds(v).clear())
      order.clear()
      dist(sNode) = 0; sigma(sNode) = 1.0
      val queue = new java.util.ArrayDeque[Integer]()
      queue.add(sNode)
      while (!queue.isEmpty) {
        val u = queue.poll().intValue()
        order += u
        val a = g.adj(u); var i = 0
        while (i < a.length) {
          val v = a(i)
          if (members(v) && liveEdge(u, v)) {
            if (dist(v) == -1) { dist(v) = dist(u) + 1; queue.add(v) }
            if (dist(v) == dist(u) + 1) { sigma(v) += sigma(u); preds(v) += u }
          }
          i += 1
        }
      }
      var i = order.length - 1
      while (i >= 0) {
        val w = order(i)
        preds(w).foreach { u =>
          val c = sigma(u) / sigma(w) * (1.0 + delta(w))
          val e = if (u < w) (u, w) else (w, u)
          perEdge(e) = perEdge.getOrElse(e, 0.0) + c
          delta(u) += c
        }
        if (w != sNode) perNode(w) = perNode(w) + delta(w)
        i -= 1
      }
    }
    // each undirected pair counted from both endpoints
    perNode.mapValuesInPlace((_, x) => x / 2.0)
    perEdge.mapValuesInPlace((_, x) => x / 2.0)
    (perNode, perEdge)
  }

  /** Bron–Kerbosch with pivoting; emits maximal cliques as sorted arrays.
    * Stops after `cap` cliques (safety valve for pathological inputs).
    */
  def maximalCliques(g: LocalGraph, cap: Int = 500000): Seq[Array[Int]] = {
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    def neighborsSet(v: Int): mutable.BitSet = { val b = mutable.BitSet.empty; g.adj(v).foreach(b += _); b }
    val nbr = Array.tabulate(g.n)(neighborsSet)
    def bk(r: mutable.ArrayBuffer[Int], p: mutable.BitSet, x: mutable.BitSet): Unit = {
      if (out.length >= cap) return
      if (p.isEmpty && x.isEmpty) { out += r.toArray.sorted; return }
      // pivot: node in P∪X with most neighbors in P
      var pivot = -1; var best = -1
      (p.iterator ++ x.iterator).foreach { u =>
        val c = (nbr(u) & p).size
        if (c > best) { best = c; pivot = u }
      }
      val candidates = (p &~ nbr(pivot)).toArray
      for (v <- candidates) {
        r += v
        bk(r, p & nbr(v), x & nbr(v))
        r.remove(r.length - 1)
        p -= v; x += v
      }
    }
    val p0 = mutable.BitSet.empty; (0 until g.n).foreach(p0 += _)
    bk(mutable.ArrayBuffer.empty[Int], p0, mutable.BitSet.empty)
    out.toSeq
  }

  /** Stoer–Wagner global min cut of the subgraph induced by `nodes`.
    * Returns (cutWeight, one side of the cut as original ids).
    * O(V^3); intended for components of a few hundred nodes.
    */
  def stoerWagnerMinCut(g: LocalGraph, nodes: Array[Int]): (Int, Array[Int]) = {
    val k = nodes.length
    require(k >= 2, "min cut needs >= 2 nodes")
    val idx = mutable.HashMap.empty[Int, Int]
    nodes.zipWithIndex.foreach { case (v, i) => idx(v) = i }
    val w = Array.ofDim[Int](k, k)
    for (u <- nodes; v <- g.adj(u) if idx.contains(v) && v > u) {
      val a = idx(u); val b = idx(v); w(a)(b) += 1; w(b)(a) += 1
    }
    // merged(i) = original ids contracted into i
    val groups = Array.tabulate(k)(i => mutable.ArrayBuffer(nodes(i)))
    val active = mutable.ArrayBuffer.tabulate(k)(identity)
    var bestCut = Int.MaxValue
    var bestSide: Array[Int] = Array.empty
    while (active.length > 1) {
      // maximum adjacency ordering
      val inA = mutable.BitSet.empty
      val weight = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
      var prev = -1; var last = -1
      var step = 0
      while (step < active.length) {
        var sel = -1; var selW = -1
        active.foreach { v => if (!inA(v) && weight(v) > selW) { selW = weight(v); sel = v } }
        inA += sel
        active.foreach { v => if (!inA(v)) weight(v) = weight(v) + w(sel)(v) }
        prev = last; last = sel
        step += 1
      }
      val cutOfPhase = {
        var s = 0
        active.foreach { v => if (v != last) s += w(last)(v) }
        s
      }
      if (cutOfPhase < bestCut) { bestCut = cutOfPhase; bestSide = groups(last).toArray }
      // merge last into prev
      active.foreach { v =>
        if (v != last && v != prev) { w(prev)(v) += w(last)(v); w(v)(prev) = w(prev)(v) }
      }
      groups(prev) ++= groups(last)
      active -= last
    }
    (bestCut, bestSide)
  }
}

/** Eigenvector centrality for the Section 6.3.2 case study; betweenness is
  * `GraphAlgos.betweenness`.
  */
object Centrality {
  import scala.collection.mutable

  /** Eigenvector centrality by 100 rounds of power iteration restricted to
    * `members`. Iterates on (A + I) so bipartite subgraphs (eigenvalues ±λ)
    * converge.
    */
  def eigen(g: LocalGraph, members: mutable.BitSet): mutable.HashMap[Int, Double] = {
    val x = mutable.HashMap.empty[Int, Double]
    members.foreach(v => x(v) = 1.0)
    var it = 0
    while (it < 100) {
      val y = mutable.HashMap.empty[Int, Double]
      members.foreach { v =>
        var s = x(v)
        g.adj(v).foreach(w => if (members(w)) s += x(w))
        y(v) = s
      }
      val norm = math.sqrt(y.values.map(z => z * z).sum)
      if (norm <= 0) return x
      members.foreach(v => x(v) = y(v) / norm)
      it += 1
    }
    x
  }
}
