package dmcsbench

import java.security.MessageDigest
import repro.core.Modularity
import repro.graph.LocalGraph
import scala.collection.mutable

/** Answer checks applied to every query the benchmark times. */
object Checks {

  /** Why `community` is not a valid answer to `queries` on `g` with the
    * reported density modularity `score`, or None when it is: it must hold
    * every query node, be connected, and have a DM that, recomputed from
    * scratch over the full graph, matches `score` to 1e-9.
    */
  def check(g: LocalGraph, queries: Seq[Int], community: Set[Int], score: Double): Option[String] = {
    val members = mutable.BitSet.empty ++= community
    if (community.isEmpty) Some("empty answer")
    else if (!queries.forall(members)) Some("answer misses a query node")
    else if (!g.isConnected(members)) Some("answer is disconnected")
    else {
      val dm = Modularity.dm(g.edgeCount(members), g.degreeSum(members), members.size.toLong, g.m)
      if (math.abs(dm - score) <= 1e-9 * math.max(1.0, math.abs(dm))) None
      else Some(s"reported DM $score but recomputed $dm")
    }
  }

  /** Order-sensitive digest of a sequence of answers, each taken as its
    * sorted node ids, so two runs over the same queries can be compared.
    */
  def digest(answers: Seq[Set[Int]]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    answers.foreach { a =>
      md.update(a.toArray.sorted.mkString(",").getBytes("UTF-8"))
      md.update(';'.toByte)
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
