package repro.baselines

import repro.graph.LocalGraph
import scala.collection.mutable

/** Wu et al. 2015 query-biased density, reproduced as a greedy node-deletion
  * peel (DESIGN.md §3): node weights grow as (1/eta)^dist = 2^dist from the
  * queries so far-away nodes are expensive to keep; the peel repeatedly
  * removes the non-articulation node with the smallest connectivity-per-weight
  * and returns the best query-biased-density intermediate.
  */
object QueryBiased {

  def find(g: LocalGraph, queries: Seq[Int]): Option[Set[Int]] = {
    val comp = g.componentOf(queries.head)
    if (!queries.forall(comp)) return None
    val dist = g.bfsDist(queries, comp)
    val weight = new Array[Double](g.n)
    comp.foreach(v => weight(v) = math.pow(2.0, math.min(30, dist(v))))

    val s = comp.clone()
    val kv = new Array[Int](g.n)
    var lS = 0L
    s.foreach { v => kv(v) = g.degreeWithin(v, s); lS += kv(v) }
    lS /= 2
    var wSum = 0.0
    s.foreach(wSum += weight(_))

    val removedOrder = mutable.ArrayBuffer.empty[Int]
    def rho: Double = if (wSum <= 0) 0.0 else lS / wSum
    var bestRho = rho
    var bestCount = 0

    // S starts as a component and stays connected; the check owns it
    val cut = g.cutCheck(s, queries.head)
    var continue = true
    while (continue) {
      val bestV = cut.bestNonCut { ok =>
        var bestV = -1; var bestScore = Double.PositiveInfinity
        s.foreach { v =>
          if (!queries.contains(v) && ok(v)) {
            val sc = kv(v) / weight(v) // cheap-to-drop: few links, far away
            if (sc < bestScore || (sc == bestScore && v < bestV)) { bestScore = sc; bestV = v }
          }
        }
        bestV
      }
      if (bestV == -1) continue = false
      else {
        cut.remove(bestV)
        lS -= kv(bestV)
        wSum -= weight(bestV)
        g.adj(bestV).foreach(w => if (s(w)) kv(w) -= 1)
        removedOrder += bestV
        if (rho >= bestRho) { bestRho = rho; bestCount = removedOrder.length }
      }
    }
    val community = comp.clone()
    removedOrder.take(bestCount).foreach(community -= _)
    Some(community.toSet)
  }
}
