package dmcsbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicInteger
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command-line entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints one `{"run_info": ...}` line (environment, sample counts, answer
  * digest and the workload-specific figures) and then, as the last line, the
  * result object `{"correct", "attempted", "failed", "metrics"}`. With
  * `--trace 0` the metrics are the end-to-end ones, timed with no tracing;
  * with `--trace 1` they are the per-layer ones from a separate traced loop.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Options(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      })
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = Workload.byName.getOrElse(opts.workload, {
      System.err.println(s"unknown workload ${opts.workload}; known: ${Workload.byName.keys.mkString(", ")}")
      sys.exit(2)
    })
    val out = workload.run(opts)
    println(Json.render(Map("run_info" -> out.info)))
    println(Json.render(scala.collection.immutable.ListMap(
      "correct" -> (out.failed == 0),
      "attempted" -> out.attempted,
      "failed" -> out.failed,
      "metrics" -> scala.collection.immutable.ListMap(out.metrics.map { case (name, value, unit) =>
        name -> scala.collection.immutable.ListMap("value" -> value, "unit" -> unit)
      }: _*))))
  }
}

/** What one run reports: metrics as (name, value, unit) and run info. */
final case class Outcome(metrics: Seq[(String, Double, String)], attempted: Int, failed: Int,
                         info: Map[String, Any])

/** Timing helpers shared by the workloads. */
object Timing {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of every garbage collector so far, in ms. */
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Heap in use after a full collection, in MB (2^20 bytes). */
  def heapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** One closed-loop client: calls `call(i)` for i = from, from+1, ... while
    * i < until, until `seconds` have passed, at least `minCount` calls were
    * made and the count is a multiple of `cycle` (so every |Q| of the query
    * cycle, or every graph, is sampled equally often). `call` returns the
    * time of its timed part in ms.
    */
  def loop(from: Int, until: Int, seconds: Double, minCount: Int = 1, cycle: Int = 1)
          (call: Int => Double): Phase = {
    val start = System.nanoTime()
    val deadline = start + (seconds * 1e9).toLong
    val ms = mutable.ArrayBuffer.empty[Double]
    val ends = mutable.ArrayBuffer.empty[Long]
    var i = from
    def more = ms.length < minCount || ms.length % cycle != 0 || System.nanoTime() < deadline
    while (i < until && more) {
      ms += call(i); ends += System.nanoTime(); i += 1
    }
    Phase(ms, i, start, ends)
  }

  /** `clients` closed-loop clients sharing one query cursor for `seconds`. */
  def concurrent(clients: Int, from: Int, until: Int, seconds: Double)(call: Int => Double): Phase = {
    val next = new AtomicInteger(from)
    val ms = mutable.ArrayBuffer.empty[Double]
    val ends = mutable.ArrayBuffer.empty[Long]
    val start = System.nanoTime()
    val deadline = start + (seconds * 1e9).toLong
    val ts = (0 until clients).map { _ =>
      new Thread(() => {
        var go = true
        while (go && System.nanoTime() < deadline) {
          val i = next.getAndIncrement()
          if (i >= until) go = false
          else {
            val t = call(i)
            ms.synchronized { ms += t; ends += System.nanoTime() }
          }
        }
      })
    }
    ts.foreach(_.start()); ts.foreach(_.join())
    Phase(ms, math.min(next.get, until), start, ends)
  }

  /** Untimed calls on query indices until-1, until-2, ... for `seconds` (at
    * least one call), so the JIT compiles the hot paths before timing
    * starts. Returns the lowest index used: the timed loops take the indices
    * below it, so no query is answered twice.
    */
  def warmUp(until: Int, seconds: Double)(call: Int => Unit): Int = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = until
    while (i > 0 && (i == until || System.nanoTime() < deadline)) { i -= 1; call(i) }
    i
  }
}

/** One timed phase: each call's time in ms, the phase start and each call's
  * completion time (ns, in completion order), and the next unused query index.
  */
final case class Phase(ms: mutable.ArrayBuffer[Double], next: Int, startNs: Long, endsNs: collection.Seq[Long]) {

  /** Completions per second of each run of `k` consecutive completions. A
    * phase shorter than one block is one block.
    */
  def blockRates(k: Int): Seq[Double] = {
    val bounds = startNs +: endsNs
    val blocks = math.max(1, endsNs.length / k)
    val size = endsNs.length / blocks
    (1 to blocks).map(b => size / ((bounds(b * size) - bounds((b - 1) * size)) / 1e9))
  }

  /** Completions per second, as the median over blocks of `k` completions,
    * so a few slow seconds on a shared host move it no more than they move
    * a median latency.
    */
  def rate(k: Int): Double = Stats.median(blockRates(k))
}

/** The per-layer replay of one query: the public `LocalGraph` calls a peel
  * makes before it starts removing nodes, timed one by one on the same
  * inputs. With `steiner` (the farthest-layer rule) and |Q|>1 it includes
  * the parent BFS and the walk that protects the paths linking Q.
  */
final case class Replay(componentMs: Double, parentsMs: Option[Double], distMs: Double,
                        articulationMs: Double, componentNodes: Int, maxLayer: Int) {
  def bfsMs: Double = componentMs + parentsMs.getOrElse(0.0) + distMs
}

object Replay {
  def apply(g: LocalGraph, q: Seq[Int], steiner: Boolean): Replay = {
    var t0 = System.nanoTime()
    val comp = g.componentOf(q.head)
    val componentMs = Timing.ms(t0)
    val prot = mutable.BitSet.empty ++= q
    val parentsMs = if (steiner && q.length > 1) {
      t0 = System.nanoTime()
      val parents = g.bfsParents(q.head, comp)
      for (v0 <- q) {
        var v = parents(v0)
        while (v != -1 && !prot.contains(v)) { prot += v; v = parents(v) }
      }
      Some(Timing.ms(t0))
    } else None
    t0 = System.nanoTime()
    val dist = g.bfsDist(prot, comp)
    val distMs = Timing.ms(t0)
    t0 = System.nanoTime()
    g.articulationPoints(comp)
    val articulationMs = Timing.ms(t0)
    Replay(componentMs, parentsMs, distMs, articulationMs, comp.size, comp.iterator.map(dist(_)).max)
  }
}

/** Per-layer timings of a traced loop, one entry per query. */
final class LayerSamples {
  val component, parents, dist, articulation, self = mutable.ArrayBuffer.empty[Double]

  def add(r: Replay, selfMs: Double): Unit = {
    component += r.componentMs; r.parentsMs.foreach(parents += _); dist += r.distMs
    articulation += r.articulationMs; self += selfMs
  }

  def metrics: Seq[(String, Double, String)] = Seq(
    ("graph.component_ms", Stats.median(component), "ms"),
    ("graph.bfs_parents_ms", Stats.median(parents), "ms"),
    ("graph.bfs_dist_ms", Stats.median(dist), "ms"),
    ("graph.articulation_ms", Stats.median(articulation), "ms"),
    ("peeler.self_ms", Stats.median(self), "ms"))
}

object LayerSamples {

  /** Size counts (medians) over a fixed sample of queries and their Peeler
    * answers, so that they repeat exactly for a seed.
    */
  def counts(sample: Seq[(Query, Seq[Answer])]): Seq[(String, Double, String)] = {
    val replays = sample.map { case (q, _) => Replay(q.g, q.nodes, steiner = true) }
    val answers = sample.flatMap(_._2)
    Seq(
      ("graph.component_nodes", Stats.median(replays.map(_.componentNodes.toDouble)), "count"),
      ("graph.max_layer", Stats.median(replays.map(_.maxLayer.toDouble)), "count"),
      ("peeler.answer_nodes", Stats.median(answers.map(_.community.size.toDouble)), "count"),
      ("peeler.removed", Stats.median(answers.map(_.removed.toDouble)), "count"))
  }
}
