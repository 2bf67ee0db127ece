package repro.baselines

import repro.graph.{GraphAlgos, LocalGraph}
import scala.collection.mutable

/** Densest clique percolation community search (Yuan et al. 2017 semantics):
  * for the largest k possible, the union of the k-clique-percolation
  * component (maximal cliques of size >= k, adjacent when sharing >= k-1
  * nodes) that contains the query nodes.
  */
object CliquePerc {

  def find(g: LocalGraph, queries: Seq[Int]): Option[Set[Int]] = {
    val cliques = GraphAlgos.maximalCliques(g, cap = 200000).toIndexedSeq
    if (cliques.isEmpty) return None
    val maxK = cliques.map(_.length).max
    var k = maxK
    while (k >= 2) {
      val cs = cliques.zipWithIndex.filter(_._1.length >= k)
      // clique ids containing each query
      val qCliques = queries.map(q => cs.filter(_._1.contains(q)).map(_._2).toSet)
      if (qCliques.forall(_.nonEmpty)) {
        // union-find over cliques: adjacent iff sharing >= k-1 nodes
        val idx = cs.map(_._2).zipWithIndex.toMap // global clique id -> local
        val parent = Array.tabulate(cs.length)(identity)
        def findRoot(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); var c = x; while (parent(c) != c) { val nx = parent(c); parent(c) = r; c = nx }; r }
        def union(a: Int, b: Int): Unit = { val ra = findRoot(a); val rb = findRoot(b); if (ra != rb) parent(ra) = rb }
        var i = 0
        while (i < cs.length) {
          var j = i + 1
          while (j < cs.length) {
            if (sharedAtLeast(cs(i)._1, cs(j)._1, k - 1)) union(i, j)
            j += 1
          }
          i += 1
        }
        // is there one percolation component containing a clique of each query?
        val roots = qCliques.map(_.map(gid => findRoot(idx(gid))))
        val common = roots.reduce(_ intersect _)
        if (common.nonEmpty) {
          val root = common.head
          val nodes = mutable.HashSet.empty[Int]
          cs.indices.foreach { li => if (findRoot(li) == root) cs(li)._1.foreach(nodes += _) }
          return Some(nodes.toSet)
        }
      }
      k -= 1
    }
    None
  }

  /** Do two sorted arrays share at least `t` elements? */
  private def sharedAtLeast(a: Array[Int], b: Array[Int], t: Int): Boolean = {
    var i = 0; var j = 0; var c = 0
    while (i < a.length && j < b.length && c < t) {
      if (a(i) == b(j)) { c += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    c >= t
  }
}
