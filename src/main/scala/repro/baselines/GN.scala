package repro.baselines

import repro.core.Modularity
import repro.graph.{GraphAlgos, LocalGraph}
import scala.collection.mutable

/** Girvan–Newman divisive clustering adapted for community search: remove
  * max-edge-betweenness edges one by one; among the intermediate components
  * containing all the queries, return the one with the largest density
  * modularity. `budgetMs` mirrors the paper's 24-hour timeout (GN "fails"
  * on Polblogs) at bench scale.
  */
object GN {

  def find(g: LocalGraph, queries: Seq[Int], budgetMs: Long = 60000): Option[Set[Int]] = {
    val t0 = System.currentTimeMillis()
    val all = mutable.BitSet.empty
    (0 until g.n).foreach(all += _)
    val dead = mutable.HashSet.empty[Long]
    def ekey(u: Int, v: Int): Long = if (u < v) u.toLong * g.n + v else v.toLong * g.n + u
    val live = (u: Int, v: Int) => !dead.contains(ekey(u, v))

    def queryComponent(): Option[mutable.BitSet] = {
      val comp = mutable.BitSet.empty
      val queue = new java.util.ArrayDeque[Integer]()
      comp += queries.head; queue.add(queries.head)
      while (!queue.isEmpty) {
        val u = queue.poll().intValue()
        g.adj(u).foreach { v => if (!comp(v) && live(u, v)) { comp += v; queue.add(v) } }
      }
      if (queries.forall(comp)) Some(comp) else None
    }

    var best: Option[(Double, Set[Int])] = None
    def consider(): Boolean = queryComponent() match {
      case Some(comp) =>
        val dm = Modularity.dmOf(g, comp)
        if (best.forall(_._1 < dm)) best = Some((dm, comp.toSet))
        true
      case None => false
    }
    if (!consider()) return None

    var continue = true
    while (continue && dead.size < g.m) {
      if (System.currentTimeMillis() - t0 > budgetMs) return best.map(_._2) // timeout
      val bc = GraphAlgos.betweenness(g, all, live)._2
      if (bc.isEmpty) continue = false
      else {
        val ((u, v), _) = bc.maxBy { case ((a, b), w) => (w, -a.toLong * g.n - b) }
        dead += ekey(u, v)
        if (!consider()) continue = false // queries split: later graphs can't contain them
      }
    }
    best.map(_._2)
  }
}
