package repro.baselines

import repro.graph.{GraphAlgos, LocalGraph}
import scala.collection.mutable

/** k-edge-connected component search (Chang et al. style result semantics).
  *
  * Exact on small components: k-core reduction, then recursive Stoer–Wagner
  * min-cut splitting until the component containing the queries has edge
  * connectivity >= k. Components larger than 400 nodes are accepted after
  * k-core reduction (dense synthetic components at small k are k-edge-
  * connected in practice; see DESIGN.md §3).
  */
object KEcc {

  /** Peel `members` down to its k-core (degrees within the member set). */
  private def kCoreWithin(g: LocalGraph, members: mutable.BitSet, k: Int): mutable.BitSet = {
    val s = members.clone()
    val deg = new Array[Int](g.n)
    s.foreach(v => deg(v) = g.degreeWithin(v, s))
    val queue = new java.util.ArrayDeque[Integer]()
    s.foreach(v => if (deg(v) < k) queue.add(v))
    while (!queue.isEmpty) {
      val v = queue.poll().intValue()
      if (s(v)) {
        s -= v
        g.adj(v).foreach { w =>
          if (s(w)) { deg(w) -= 1; if (deg(w) == k - 1) queue.add(w) }
        }
      }
    }
    s
  }

  def kecc(g: LocalGraph, queries: Seq[Int], k: Int): Option[Set[Int]] = {
    var members = kCoreWithin(g, {
      val all = mutable.BitSet.empty; (0 until g.n).foreach(all += _); all
    }, k)
    var guard = 0
    while (guard < 10000) {
      guard += 1
      if (!queries.forall(members)) return None
      val comp = g.componentOf(queries.head, members)
      if (!queries.forall(comp)) return None
      if (comp.size < 2) return if (k <= 0) Some(comp.toSet) else None
      if (comp.size > 400) return Some(comp.toSet) // heuristic accept
      val (cut, side) = GraphAlgos.stoerWagnerMinCut(g, comp.toArray)
      if (cut >= k) return Some(comp.toSet)
      // split along the cut; keep the side with the first query, re-peel
      val sideSet = mutable.BitSet.empty
      side.foreach(sideSet += _)
      val next =
        if (sideSet(queries.head)) sideSet
        else { val o = comp.clone(); sideSet.foreach(o -= _); o }
      members = kCoreWithin(g, next, k)
    }
    None
  }
}
