package repro.graph

import scala.collection.mutable

/** Immutable undirected simple graph with sorted adjacency arrays.
  *
  * Node ids are `0 until n`. Self-loops and parallel edges are dropped at
  * construction. All traversal primitives optionally take a membership
  * predicate so algorithms can operate on an induced subgraph without
  * re-indexing node ids.
  */
final class LocalGraph private (val n: Int, val adj: Array[Array[Int]]) extends Serializable {

  /** Degree of each node in the full graph. */
  val degree: Array[Int] = Array.tabulate(n)(i => adj(i).length)

  /** Number of undirected edges `|E|`. */
  val m: Long = degree.foldLeft(0L)(_ + _) / 2

  def hasEdge(u: Int, v: Int): Boolean =
    u >= 0 && u < n && java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** Iterator over undirected edges as (u, v) with u < v. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** Number of edges internal to `members`. */
  def edgeCount(members: Int => Boolean): Long = {
    var l = 0L
    var u = 0
    while (u < n) {
      if (members(u)) {
        val a = adj(u); var i = 0
        while (i < a.length) { if (a(i) > u && members(a(i))) l += 1; i += 1 }
      }
      u += 1
    }
    l
  }

  /** Sum of *global* degrees over `members` (the d_C of the paper). */
  def degreeSum(members: mutable.BitSet): Long =
    members.foldLeft(0L)((s, v) => s + degree(v))

  /** Number of neighbors of `v` inside `members` (the k_{v,S} of the paper). */
  def degreeWithin(v: Int, members: Int => Boolean): Int = {
    var k = 0; val a = adj(v); var i = 0
    while (i < a.length) { if (members(a(i))) k += 1; i += 1 }
    k
  }

  /** Multi-source BFS distance, restricted to `inS`; -1 for unreachable. */
  def bfsDist(sources: Iterable[Int], inS: Int => Boolean = _ => true): Array[Int] = {
    val dist = Array.fill(n)(-1)
    val queue = new Array[Int](n)
    var head = 0; var tail = 0
    for (s <- sources) if (inS(s) && dist(s) == -1) { dist(s) = 0; queue(tail) = s; tail += 1 }
    while (head < tail) {
      val u = queue(head); head += 1
      val a = adj(u); var i = 0
      while (i < a.length) {
        val v = a(i)
        if (dist(v) == -1 && inS(v)) { dist(v) = dist(u) + 1; queue(tail) = v; tail += 1 }
        i += 1
      }
    }
    dist
  }

  /** BFS parents from a single source (restricted); -1 = none/unreached.
    * The parent of v is its smallest-id neighbour one layer closer to the
    * source, the same rule as `GraphFrames.bfsDist`.
    */
  def bfsParents(source: Int, inS: Int => Boolean = _ => true): Array[Int] = {
    val parent = Array.fill(n)(-1)
    val dist = Array.fill(n)(-1)
    val queue = new Array[Int](n)
    dist(source) = 0; queue(0) = source
    var head = 0; var tail = 1
    while (head < tail) {
      val u = queue(head); head += 1
      val a = adj(u); var i = 0
      while (i < a.length) {
        val v = a(i)
        if (dist(v) == -1 && inS(v)) { dist(v) = dist(u) + 1; parent(v) = u; queue(tail) = v; tail += 1 }
        else if (dist(v) == dist(u) + 1 && u < parent(v)) parent(v) = u
        i += 1
      }
    }
    parent
  }

  /** `bfsParents(source)` computed only as far as `targets` need, or None
    * when some target is in another component. The parent of a node on
    * layer L is final once layer L-1 has been scanned, so the BFS stops once
    * every target has a distance and the layer before the farthest target's
    * has been scanned: the parents on every target's path to `source` are
    * then final. Nodes farther than the farthest target keep -1.
    */
  def bfsParentsTo(source: Int, targets: Iterable[Int]): Option[Array[Int]] = {
    val parent = Array.fill(n)(-1)
    val dist = Array.fill(n)(-1)
    val queue = new Array[Int](n)
    dist(source) = 0; queue(0) = source
    var missing = 0 // targets not yet reached, each marked with distance -2
    for (t <- targets) if (dist(t) == -1) { dist(t) = -2; missing += 1 }
    var lastLayer = -1 // the layer to finish once no target is missing
    var head = 0; var tail = 1
    while (head < tail && (missing > 0 || dist(queue(head)) <= lastLayer)) {
      val u = queue(head); head += 1
      val a = adj(u); var i = 0
      while (i < a.length) {
        val v = a(i)
        if (dist(v) < 0) {
          if (dist(v) == -2) { missing -= 1; if (missing == 0) lastLayer = dist(u) }
          dist(v) = dist(u) + 1; parent(v) = u; queue(tail) = v; tail += 1
        } else if (dist(v) == dist(u) + 1 && u < parent(v)) parent(v) = u
        i += 1
      }
    }
    if (missing > 0) None else Some(parent)
  }

  /** Multi-source BFS from `sources` (unrestricted) that also returns its
    * visit order and the per-layer statistics of Section 5.7, counted as the
    * BFS runs. When u on layer d leaves the queue, every node of layer d has
    * its distance, so the edge (u, w) is counted for layer d if w lies on
    * layer d-1, or on layer d with w < u: each edge once, for the layer of
    * its farther endpoint.
    */
  def bfsLayers(sources: Iterable[Int]): LocalGraph.Layers = {
    val dist = Array.fill(n)(-1)
    val order = new Array[Int](n)
    var head = 0; var tail = 0
    for (s <- sources) if (dist(s) == -1) { dist(s) = 0; order(tail) = s; tail += 1 }
    val nNodes, sumDeg, nEdges = mutable.ArrayBuffer.empty[Long]
    var d = 0; var nodes = 0L; var degs = 0L; var edges = 0L // layer d so far
    while (head < tail) {
      val u = order(head); head += 1
      if (dist(u) > d) {
        nNodes += nodes; sumDeg += degs; nEdges += edges
        d += 1; nodes = 0; degs = 0; edges = 0
      }
      nodes += 1; degs += degree(u)
      val a = adj(u); var i = 0
      while (i < a.length) {
        val w = a(i); val dw = dist(w)
        if (dw == -1) { dist(w) = d + 1; order(tail) = w; tail += 1 }
        else if (dw == d - 1 || (dw == d && w < u)) edges += 1
        i += 1
      }
    }
    if (tail > 0) { nNodes += nodes; sumDeg += degs; nEdges += edges }
    LocalGraph.Layers(dist, order, tail, nNodes.toArray, sumDeg.toArray, nEdges.toArray)
  }

  /** Connected component of `seed` restricted to `inS`, as a BitSet. */
  def componentOf(seed: Int, inS: Int => Boolean = _ => true): mutable.BitSet = {
    val comp = mutable.BitSet.empty
    if (!inS(seed)) return comp
    val queue = new Array[Int](n)
    comp += seed; queue(0) = seed
    var head = 0; var tail = 1
    while (head < tail) {
      val u = queue(head); head += 1
      val a = adj(u); var i = 0
      while (i < a.length) {
        val v = a(i)
        if (inS(v) && !comp(v)) { comp += v; queue(tail) = v; tail += 1 }
        i += 1
      }
    }
    comp
  }

  def isConnected(members: mutable.BitSet): Boolean = {
    if (members.isEmpty) return true
    componentOf(members.head, members).size == members.size
  }

  /** Articulation points of the subgraph induced by `members` (iterative
    * Hopcroft–Tarjan low-link; safe on deep graphs).
    */
  def articulationPoints(members: mutable.BitSet): mutable.BitSet = {
    val disc = Array.fill(n)(-1)
    val low = new Array[Int](n)
    val parent = Array.fill(n)(-1)
    val childIdx = new Array[Int](n)
    val stack = new Array[Int](n)
    val art = mutable.BitSet.empty
    var timer = 0
    var root = 0
    while (root < n) {
      if (members.contains(root) && disc(root) == -1) {
        var rootChildren = 0
        disc(root) = timer; low(root) = timer; timer += 1
        stack(0) = root
        var depth = 1
        while (depth > 0) {
          val u = stack(depth - 1)
          var advanced = false
          while (!advanced && childIdx(u) < adj(u).length) {
            val v = adj(u)(childIdx(u)); childIdx(u) += 1
            if (members.contains(v)) {
              if (disc(v) == -1) {
                parent(v) = u
                if (u == root) rootChildren += 1
                disc(v) = timer; low(v) = timer; timer += 1
                stack(depth) = v; depth += 1; advanced = true
              } else if (v != parent(u)) {
                if (disc(v) < low(u)) low(u) = disc(v)
              }
            }
          }
          if (!advanced) {
            depth -= 1
            val p = parent(u)
            if (p != -1) {
              if (low(u) < low(p)) low(p) = low(u)
              if (p != root && low(u) >= disc(p)) art.addOne(p)
            }
          }
        }
        if (rootChildren >= 2) art.addOne(root)
      }
      root += 1
    }
    art
  }

  /** Removal checks on a connected member set that changes one node at a
    * time (a peel, or a search that also adds nodes). The check owns the
    * changes: `remove` and `add` update `members` and a spanning tree of it
    * rooted at `root`, which is never removed. Its work arrays are allocated
    * once, and each search stamps them with a fresh epoch instead of
    * clearing them.
    */
  def cutCheck(members: mutable.BitSet, root: Int): CutCheck = new CutCheck(members, root)

  final class CutCheck private[LocalGraph] (members: mutable.BitSet, root: Int) {
    require(members.contains(root), s"root $root is not a member")
    // the spanning tree: each member's parent (-1 at the root), its number
    // of tree children, and a label that strictly grows from parent to
    // child (the BFS depth when the tree is built)
    private val parent = new Array[Int](n)
    private val children = new Array[Int](n)
    private val label = new Array[Int](n)
    private val stamp = new Array[Int](n)
    private val queue = new Array[Int](n)
    private var epoch = 0
    // how each `bestNonCut` was answered, and how often the tree was
    // repaired or rebuilt
    private[graph] var leaves, anchors, searches, fallbacks, repairs, rebuilds = 0
    build()

    private[graph] def parentOf(v: Int): Int = parent(v)
    private[graph] def labelOf(v: Int): Int = label(v)
    private[graph] def childCount(v: Int): Int = children(v)

    /** Builds the tree by a BFS from the root inside `members`. */
    private def build(): Unit = {
      epoch += 1
      val seen = 2 * epoch + 1
      parent(root) = -1; children(root) = 0; label(root) = 0
      stamp(root) = seen; queue(0) = root
      var head = 0; var tail = 1
      while (head < tail) {
        val u = queue(head); head += 1
        val a = adj(u); var i = 0
        while (i < a.length) {
          val w = a(i)
          if (stamp(w) != seen && members.contains(w)) {
            stamp(w) = seen; parent(w) = u; children(w) = 0; label(w) = label(u) + 1
            children(u) += 1; queue(tail) = w; tail += 1
          }
          i += 1
        }
      }
    }

    /** A member neighbour of c other than v whose label is at most v's, or
      * -1. Labels grow down the tree, so it lies outside v's subtree.
      */
    private def anchor(c: Int, v: Int): Int = {
      val a = adj(c); val lv = label(v); var i = 0
      while (i < a.length) {
        val x = a(i)
        if (x != v && label(x) <= lv && members.contains(x)) return x
        i += 1
      }
      -1
    }

    /** Whether every tree child of member v has an anchor: then each child
      * subtree reattaches outside v's subtree, and `members` - v stays
      * connected.
      */
    private def anchored(v: Int): Boolean = {
      val a = adj(v); var left = children(v); var i = 0
      while (left > 0 && i < a.length) {
        val c = a(i)
        if (parent(c) == v && members.contains(c)) {
          if (anchor(c, v) == -1) return false
          left -= 1
        }
        i += 1
      }
      true
    }

    /** Removes member v, whose removal keeps `members` connected. A leaf
      * leaves its parent. Otherwise each child moves under its anchor, or,
      * if some child has none, the tree is built again.
      */
    def remove(v: Int): Unit = {
      require(v != root && members.contains(v), s"$v is the root or not a member")
      val rebuild = children(v) > 0 && !anchored(v)
      if (!rebuild) {
        if (children(v) > 0) {
          val a = adj(v); var i = 0
          while (i < a.length) {
            val c = a(i)
            if (parent(c) == v && members.contains(c)) {
              val x = anchor(c, v)
              parent(c) = x; children(x) += 1
            }
            i += 1
          }
          repairs += 1
        }
        children(parent(v)) -= 1
      }
      members.subtractOne(v)
      if (rebuild) { rebuilds += 1; build() }
    }

    /** Adds v, a non-member with a member neighbour, as a tree leaf under
      * its first member neighbour.
      */
    def add(v: Int): Unit = {
      require(!members.contains(v), s"$v is a member")
      val a = adj(v); var i = 0
      while (i < a.length && !members.contains(a(i))) i += 1
      require(i < a.length, s"$v has no member neighbour")
      val x = a(i)
      parent(v) = x; children(v) = 0; label(v) = label(x) + 1; children(x) += 1
      members.addOne(v)
    }

    /** Whether `members` - v stays connected, for a connected `members`
      * holding v: a BFS inside `members` - v from one member neighbour of v
      * that stops once it has reached all k_{v,S} of them.
      */
    def keepsConnected(v: Int): Boolean = {
      epoch += 1
      val nbr = 2 * epoch; val seen = nbr + 1
      val a = adj(v); var k = 0; var i = 0
      while (i < a.length) {
        val w = a(i)
        if (members.contains(w)) { stamp(w) = nbr; queue(k) = w; k += 1 }
        i += 1
      }
      if (k <= 1) return true
      stamp(v) = seen
      stamp(queue(0)) = seen
      var head = 0; var tail = 1; var found = 1
      while (head < tail) {
        val b = adj(queue(head)); head += 1
        var j = 0
        while (j < b.length) {
          val w = b(j)
          if (stamp(w) != seen && members.contains(w)) {
            if (stamp(w) == nbr) { found += 1; if (found == k) return true }
            stamp(w) = seen; queue(tail) = w; tail += 1
          }
          j += 1
        }
      }
      false
    }

    /** The member that ranks first among those whose removal keeps
      * `members` connected, or -1 if there is none. `rank(ok)` is the
      * caller's ranking: its best member passing `ok`, or -1. Only the
      * top-ranked member is checked: it is non-cut if it is a tree leaf, if
      * all its tree children are anchored, or if `keepsConnected` says so.
      * Otherwise the articulation points of `members` are computed, and the
      * ranking run again without them.
      */
    def bestNonCut(rank: (Int => Boolean) => Int): Int = {
      val top = rank(_ => true)
      if (top == -1) top
      else if (children(top) == 0) { leaves += 1; top }
      else if (anchored(top)) { anchors += 1; top }
      else if (keepsConnected(top)) { searches += 1; top }
      else {
        fallbacks += 1
        val art = articulationPoints(members)
        rank(v => !art.contains(v))
      }
    }
  }

  /** Core number of every node (bucket peeling, O(E)). */
  def coreNumbers(): Array[Int] = {
    if (n == 0) return Array.empty
    val deg = degree.clone()
    val maxDeg = deg.max
    val bin = new Array[Int](maxDeg + 2)
    deg.foreach(d => bin(d) += 1)
    var start = 0
    var d = 0
    while (d <= maxDeg) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos = new Array[Int](n)
    val vert = new Array[Int](n)
    var v = 0
    while (v < n) { pos(v) = bin(deg(v)); vert(pos(v)) = v; bin(deg(v)) += 1; v += 1 }
    d = maxDeg
    while (d >= 1) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    val core = new Array[Int](n)
    var i = 0
    while (i < n) {
      val u = vert(i)
      core(u) = deg(u)
      val a = adj(u); var j = 0
      while (j < a.length) {
        val w = a(j)
        if (deg(w) > deg(u)) {
          val dw = deg(w); val pw = pos(w)
          val pFirst = bin(dw); val vFirst = vert(pFirst)
          if (vFirst != w) {
            pos(w) = pFirst; vert(pw) = vFirst
            pos(vFirst) = pw; vert(pFirst) = w
          }
          bin(dw) += 1
          deg(w) -= 1
        }
        j += 1
      }
      i += 1
    }
    core
  }
}

object LocalGraph {
  /** A BFS from a source set: `dist` (-1 = unreached), the visit order
    * `order(0 until reached)`, which is sorted by layer, and per layer its
    * node count, global degree sum and the edges whose farther endpoint lies
    * in it.
    */
  final case class Layers(dist: Array[Int], order: Array[Int], reached: Int,
                          nNodes: Array[Long], sumDeg: Array[Long], nEdges: Array[Long])

  /** Build from an edge list; dedupes, drops self-loops, sorts adjacency. */
  def fromEdges(n: Int, edgeSeq: Iterable[(Int, Int)]): LocalGraph = {
    val sets = Array.fill(n)(mutable.SortedSet.empty[Int])
    for ((u, v) <- edgeSeq if u != v) {
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range n=$n")
      sets(u) += v; sets(v) += u
    }
    new LocalGraph(n, sets.map(_.toArray))
  }
}
