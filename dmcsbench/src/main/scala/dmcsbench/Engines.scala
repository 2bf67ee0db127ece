package dmcsbench

import repro.core.{Peeler, SparkDMCS}
import repro.eval.Metrics
import repro.graph.LocalGraph
import scala.collection.mutable

/** One engine answer in the program's node ids. `removed` is
  * `Peeler.Result.removed`, or -1 for a Spark answer.
  */
final case class Answer(community: Set[Int], score: Double, ok: Boolean, note: String, removed: Int)

object Answer {
  def of(r: Peeler.Result): Answer = Answer(r.community, r.score, r.ok, r.note, r.removed)
  def of(r: SparkDMCS.Result): Answer = Answer(r.community.map(_.toInt), r.dm, r.ok, r.note, -1)
}

object Engines {
  type Local = (LocalGraph, Seq[Int]) => Peeler.Result

  val fpa: Local = (g, q) => Peeler.fpa(g, q)

  /** The Fig 14 variants of the peel-heavy workload, in the order run. */
  val fig14: Seq[(String, Local)] = Seq(
    "noprune" -> ((g, q) => Peeler.fpaNoPrune(g, q)),
    "dmg_np" -> ((g, q) => Peeler.run(g, q, Peeler.FarthestLayer, Peeler.DMGain, layerPrune = false)),
    "nca" -> ((g, q) => Peeler.nca(g, q)))
}

/** Checks every answer a run records, and keeps the answers to the first
  * `qualityN` queries of the list, whose quality and digest do not depend on
  * how many queries a run manages to time.
  */
final class Tally(qualityN: Int) {
  private var attempted0, failed0 = 0
  private val failures0 = mutable.ArrayBuffer.empty[String]
  private val sample = mutable.TreeMap.empty[Int, (Query, Seq[Answer])]

  def record(index: Int, q: Query, answers: Seq[Answer]): Unit = synchronized {
    attempted0 += 1
    val bad = answers.iterator.map { a =>
      if (!a.ok) Some(s"not ok: ${a.note}") else Checks.check(q.g, q.nodes, a.community, a.score)
    }.collectFirst { case Some(why) => why }
    bad.foreach { why =>
      failed0 += 1
      if (failures0.length < 5) failures0 += s"Q=${q.nodes.mkString(",")}: $why"
    }
    if (index < qualityN) sample(index) = q -> answers
  }

  def attempted: Int = synchronized(attempted0)
  def failed: Int = synchronized(failed0)
  def failures: Seq[String] = synchronized(failures0.toSeq)
  def qualityQueries: Int = synchronized(sample.size)

  /** The first queries of the list with their answers, in list order. */
  def answered: Seq[(Query, Seq[Answer])] = synchronized(sample.values.toSeq)

  private def sampled: Seq[(Query, Answer)] = answered.flatMap { case (q, as) => as.map(q -> _) }

  /** Mean density modularity of the sampled answers. */
  def dmMean: Double = Stats.mean(sampled.map(_._2.score))

  /** Median NMI of the sampled answers against their best-matching
    * ground-truth community.
    */
  def nmiMedian: Double = Stats.median(sampled.map { case (q, a) =>
    q.truth.map(t => Metrics.nmi(q.g.n, a.community, t)).max
  })

  def digest: String = Checks.digest(sampled.map(_._2.community))
}
