package dmcsbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** Counts the Spark jobs, stages, tasks and shuffle bytes of traced queries
  * and sums job time into buckets by the program code that started the job,
  * read from the call site Spark records for the job's last stage:
  *
  *  - `bfs`: jobs started from a BFS method (`GraphFrames.bfsDist`, the
  *    parent BFS in `SparkDMCS`);
  *  - `layer_stats`: jobs after a BFS up to and including the first collect,
  *    which gathers the per-layer aggregates;
  *  - `collect`: later collects, which gather the chosen prefix subgraph;
  *  - `prepare`: the rest, such as the per-query edge cast and count.
  *
  * Jobs Spark starts on its own threads (broadcasts, adaptive query stages)
  * carry no program frame; they go to the bucket of the next job that does,
  * the action they were started for. Event times have millisecond resolution.
  */
final class SparkJobs extends SparkListener {
  import SparkJobs.Job

  private val jobs = mutable.ArrayBuffer.empty[Job]
  private val byId = mutable.Map.empty[Int, Job]
  private var stages = 0
  private var tasks = 0L
  private var shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val frames = e.stageInfos.maxByOption(_.stageId).map(_.details).getOrElse("")
      .linesIterator.map(_.trim).toSeq
    def method(frame: String) = frame.takeWhile(_ != '(').split('.').last
    val job = Job(e.jobId, e.time, -1L, frames.headOption.map(method).getOrElse(""),
      frames.find(_.startsWith("repro.")).map(method))
    jobs += job
    byId(e.jobId) = job
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byId.remove(e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }

  /** Blocks until every started job has been seen to end (the listener bus
    * delivers events asynchronously), for at most `timeoutMs`.
    */
  def awaitIdle(timeoutMs: Long = 10000L): Unit = {
    val end = System.currentTimeMillis() + timeoutMs
    while (synchronized(byId.nonEmpty) && System.currentTimeMillis() < end) Thread.sleep(10)
  }

  /** Totals so far. */
  def totals: SparkJobs.Totals = synchronized {
    val buckets = Array.fill(jobs.length)("")
    var afterBfs = false
    for ((j, i) <- jobs.zipWithIndex; m <- j.method) {
      buckets(i) =
        if (m.toLowerCase.contains("bfs")) { afterBfs = true; "bfs" }
        else if (afterBfs) { if (j.action == "collect") afterBfs = false; "layer_stats" }
        else if (j.action == "collect") "collect"
        else "prepare"
    }
    for (i <- buckets.indices.reverse if buckets(i).isEmpty)
      buckets(i) = if (i + 1 < buckets.length) buckets(i + 1) else "prepare"
    val ms = mutable.LinkedHashMap("bfs" -> 0L, "layer_stats" -> 0L, "collect" -> 0L, "prepare" -> 0L)
    jobs.zip(buckets).foreach { case (j, b) => if (j.end >= 0) ms(b) += j.end - j.start }
    // Time covered by at least one job: async jobs overlap the action's own.
    var covered = 0L
    var reach = Long.MinValue
    for (j <- jobs.filter(_.end >= 0).sortBy(_.start)) {
      if (j.end > reach) { covered += j.end - math.max(j.start, reach); reach = j.end }
    }
    SparkJobs.Totals(jobs.length, stages, tasks, shuffleBytes, ms.toMap, covered)
  }
}

object SparkJobs {
  private final case class Job(id: Int, start: Long, var end: Long, action: String, method: Option[String])

  final case class Totals(jobs: Int, stages: Int, tasks: Long, shuffleBytes: Long,
                          bucketMs: Map[String, Long], coveredMs: Long)
}
