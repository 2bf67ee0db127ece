package repro.baselines

import repro.core.Peeler
import repro.graph.LocalGraph
import scala.collection.mutable

/** Luo–Wang–Promislow (WI'06/icwi2008) local-modularity greedy search.
  * Local modularity M(S) = internal edges / external edges. Alternates an
  * addition phase (add the neighbor that maximizes M) and a deletion phase
  * (drop non-query, non-articulation members that increase M) until stable.
  */
object LocalModularity {

  def find(g: LocalGraph, queries: Seq[Int]): Option[Set[Int]] = {
    val comp = g.componentOf(queries.head)
    if (!queries.forall(comp)) return None
    // start from the queries and their BFS-tree paths to q0, so S is connected
    val s = mutable.BitSet.empty ++= queries
    if (queries.length > 1) {
      val parents = g.bfsParents(queries.head, comp)
      Peeler.protectPaths(queries.map(_.toLong), v => parents(v.toInt)).foreach(v => s += v.toInt)
    }
    var lIn = g.edgeCount(s)
    var dSum = g.degreeSum(s)
    def lOut: Long = dSum - 2 * lIn
    def mScore(in: Long, out: Long): Double =
      if (out == 0) Double.PositiveInfinity else in.toDouble / out

    // S starts connected and stays so; the check owns it
    val cut = g.cutCheck(s, queries.head)
    var changed = true
    var iters = 0
    while (changed && iters < 100000) {
      changed = false
      iters += 1
      // addition phase: best neighbor by resulting M
      val candidates = mutable.HashSet.empty[Int]
      s.foreach(v => g.adj(v).foreach(w => if (!s(w)) candidates += w))
      var bestV = -1; var bestM = mScore(lIn, lOut)
      candidates.foreach { v =>
        val k = g.degreeWithin(v, s)
        val nIn = lIn + k
        val nOut = (dSum + g.degree(v)) - 2 * nIn
        val sc = mScore(nIn, nOut)
        if (sc > bestM || (sc == bestM && bestV != -1 && v < bestV)) { bestM = sc; bestV = v }
      }
      if (bestV != -1 && bestM > mScore(lIn, lOut)) {
        val k = g.degreeWithin(bestV, s)
        cut.add(bestV); lIn += k; dSum += g.degree(bestV)
        changed = true
      }
      // deletion phase: best removable member by resulting M
      if (s.size > queries.length) {
        val delV = cut.bestNonCut { ok =>
          var delV = -1; var delM = mScore(lIn, lOut)
          s.foreach { v =>
            if (!queries.contains(v) && ok(v)) {
              val k = g.degreeWithin(v, s)
              val nIn = lIn - k
              val nOut = (dSum - g.degree(v)) - 2 * nIn
              val sc = mScore(nIn, nOut)
              if (sc > delM) { delM = sc; delV = v }
            }
          }
          delV
        }
        if (delV != -1) {
          val k = g.degreeWithin(delV, s)
          cut.remove(delV); lIn -= k; dSum -= g.degree(delV)
          changed = true
        }
      }
    }
    Some(s.toSet)
  }
}
