package dmcsbench

import org.apache.spark.sql.SparkSession
import repro.core.SparkDMCS
import repro.graph.GraphFrames
import scala.collection.mutable

/** A benchmark workload: how its inputs are set up from the seed, and the
  * closed loops that time it. README.md records why each one exists.
  */
sealed abstract class Workload(val name: String) {
  def run(o: Main.Options): Outcome

  /** Set-up is repeated this many times and the median reported; the inputs
    * of the last one are measured.
    */
  protected val setUps = 3

  /** Runs `build` `setUps` times; returns the last result, the median total
    * seconds and the median of each named phase in ms.
    */
  protected def setUpRepeatedly[F](build: () => (F, Seq[(String, Double)])): (F, Double, Seq[(String, Double)]) = {
    val runs = (1 to setUps).map { _ =>
      val t0 = System.nanoTime()
      val (f, phases) = build()
      (f, (System.nanoTime() - t0) / 1e9, phases)
    }
    val phaseMedians = runs.head._3.map { case (p, _) => p -> Stats.median(runs.map(_._3.toMap.apply(p))) }
    (runs.last._1, Stats.median(runs.map(_._2)), phaseMedians)
  }

  protected def usesSpark: Boolean = false

  /** The end-to-end metrics every workload reports. */
  protected def endToEnd(setupS: Double, heapMb: Double, t: Tally, p50: Double, qps: Double) = Seq(
    ("setup_s", setupS, "s"),
    ("heap_mb", heapMb, "MB"),
    ("ok_frac", (t.attempted - t.failed).toDouble / t.attempted, "ratio"),
    ("p50_ms", p50, "ms"),
    ("qps", qps, "1/s"))

  /** The per-layer metrics every workload reports from its traced run. */
  protected def perLayer(phases: Seq[(String, Double)], layers: LayerSamples, sample: Seq[(Query, Seq[Answer])],
                         t: Tally, allocBytes: Long, gcMs: Long, traced: Int, overhead: Double) =
    phases.map { case (p, ms) => (p, ms, "ms") } ++ layers.metrics ++ LayerSamples.counts(sample) ++ Seq(
      ("jvm.alloc_kb_per_query", allocBytes / 1024.0 / traced, "KB"),
      ("jvm.gc_ms_per_kquery", gcMs * 1000.0 / traced, "ms"),
      ("answer.dm_mean", t.dmMean, "dm"),
      ("answer.nmi_median", t.nmiMedian, "nmi"),
      ("trace.overhead_ratio", overhead, "ratio"))

  protected def baseInfo(o: Main.Options, graphs: Seq[Fixture], queries: Int, t: Tally): Map[String, Any] = Map(
    "workload" -> name,
    "env" -> Env.block(o.seed, usesSpark),
    "graphs" -> graphs.map(fx => Map("n" -> fx.g.n, "m" -> fx.g.m, "communities" -> fx.gt.communities.size)),
    "distinct_queries" -> queries,
    "quality_queries" -> t.qualityQueries,
    "dm_mean" -> t.dmMean,
    "nmi_median" -> t.nmiMedian,
    "answer_digest" -> t.digest,
    "failures" -> t.failures)

  protected def latencyInfo(prefix: String, xs: collection.Seq[Double]): Map[String, Any] = Map(
    s"${prefix}_samples" -> xs.length,
    s"${prefix}_p50_ms" -> Stats.median(xs),
    s"${prefix}_p90_ms" -> Stats.percentile(xs, 0.9).getOrElse("not kept: fewer than 100 samples"))

  /** A traced local FPA call: its time, allocation and answer; the replay of
    * its graph calls goes into `layers`.
    */
  protected def tracedFpa(q: Query, layers: LayerSamples): (Double, Long, Answer) = {
    val a0 = Timing.allocatedBytes()
    val t0 = System.nanoTime()
    val r = Engines.fpa(q.g, q.nodes)
    val ms = Timing.ms(t0)
    val alloc = Timing.allocatedBytes() - a0
    val a = Answer.of(r)
    val rep = Replay(q.g, q.nodes, steiner = true)
    layers.add(rep, ms - rep.bfsMs)
    (ms, alloc, a)
  }
}

object Workload {
  val all: Seq[Workload] = Seq(LocalFpa, Fig14Peel, SparkFpa)
  val byName: Map[String, Workload] = all.map(w => w.name -> w).toMap
}

/** Local FPA on Fig 11's first point: one client for latency, then two for
  * throughput.
  */
object LocalFpa extends Workload("fig11-local-10k") {
  private val qualityN = 200
  private val segments = 8

  def run(o: Main.Options): Outcome = {
    val ((fxs, qs), setupS, phases) = setUpRepeatedly { () =>
      val (fxs, qs, phases) = Fixture.buildMany(10000, Seq(1, 2, 4, 8), 1500, o.seed, graphs = 1)
      ((fxs, qs), phases)
    }
    val heap = Timing.heapMb()
    val tally = new Tally(qualityN)
    def call(i: Int): Double = {
      val q = qs(i)
      val t0 = System.nanoTime()
      val r = Engines.fpa(q.g, q.nodes)
      val ms = Timing.ms(t0)
      tally.record(i, q, Seq(Answer.of(r)))
      ms
    }
    val end = Timing.warmUp(qs.length, 0.1 * o.seconds)(i => Engines.fpa(qs(i).g, qs(i).nodes))
    if (!o.trace) {
      // The 1-client and 2-client loops alternate in short segments, so both
      // see the same mix of the host's fast and slow spells.
      val one, two = mutable.ArrayBuffer.empty[Phase]
      var next = 0
      for (k <- 0 until segments) {
        one += Timing.loop(next, end, 0.5 * o.seconds / segments, if (k == 0) qualityN else 1)(call)
        two += Timing.concurrent(2, one.last.next, end, 0.4 * o.seconds / segments)(call)
        next = two.last.next
      }
      val lat = one.flatMap(_.ms)
      Outcome(endToEnd(setupS, heap, tally, Stats.median(lat), Stats.median(two.flatMap(_.blockRates(100)).toSeq)),
        tally.attempted, tally.failed,
        baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("fpa_1c", lat) ++ latencyInfo("fpa_2c", two.flatMap(_.ms)))
    } else {
      val plain = Timing.loop(0, end, 0.3 * o.seconds, qualityN)(call).ms
      val layers = new LayerSamples
      var alloc = 0L
      val gc0 = Timing.gcMs()
      val traced = Timing.loop(plain.length, end, 0.6 * o.seconds) { i =>
        val (ms, bytes, a) = tracedFpa(qs(i), layers)
        alloc += bytes
        tally.record(i, qs(i), Seq(a))
        ms
      }.ms
      val gc = Timing.gcMs() - gc0
      Outcome(perLayer(phases, layers, tally.answered, tally, alloc, gc, traced.length,
          Stats.median(traced) / Stats.median(plain)),
        tally.attempted, tally.failed,
        baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("untraced", plain) ++ latencyInfo("traced", traced))
    }
  }
}

/** The Fig 14 peeling variants without layer pruning, on eight small graphs
  * whose queries alternate. One operation answers a query set with
  * FPA-noprune, FPA-DMG without pruning and NCA in turn, as a Fig 14 row does.
  */
object Fig14Peel extends Workload("fig14-peel-1k") {
  private val graphs = 8
  private val qualityN = 3 * graphs

  def run(o: Main.Options): Outcome = {
    val ((fxs, qs), setupS, phases) = setUpRepeatedly { () =>
      val (fxs, qs, phases) = Fixture.buildMany(1000, Seq(2), 200, o.seed, graphs)
      ((fxs, qs), phases)
    }
    val heap = Timing.heapMb()
    val tally = new Tally(qualityN)
    val perEngine = Engines.fig14.map(_._1 -> mutable.ArrayBuffer.empty[Double]).toMap
    var alloc = 0L
    /** Answers query i with every variant; returns (row ms, answers). */
    def row(i: Int, traced: Boolean): (Double, Seq[Answer]) = {
      val q = qs(i)
      var total = 0.0
      val answers = Engines.fig14.map { case (name, engine) =>
        val a0 = if (traced) Timing.allocatedBytes() else 0L
        val t0 = System.nanoTime()
        val r = engine(q.g, q.nodes)
        val ms = Timing.ms(t0)
        if (traced) alloc += Timing.allocatedBytes() - a0
        perEngine(name) += ms
        total += ms
        Answer.of(r)
      }
      tally.record(i, q, answers)
      (total, answers)
    }
    val end = Timing.warmUp(qs.length, 0.1 * o.seconds) { i =>
      Engines.fig14.foreach { case (_, engine) => engine(qs(i).g, qs(i).nodes) }
    }
    if (!o.trace) {
      val rows = Timing.loop(0, end, 0.9 * o.seconds, qualityN, graphs)(row(_, traced = false)._1)
      Outcome(endToEnd(setupS, heap, tally, Stats.median(rows.ms), rows.rate(graphs)),
        tally.attempted, tally.failed,
        baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("row", rows.ms) ++
          Engines.fig14.flatMap { case (e, _) => latencyInfo(e, perEngine(e)) })
    } else {
      val plain = Timing.loop(0, end, 0.3 * o.seconds, qualityN, graphs)(row(_, traced = false)._1).ms
      val layers = new LayerSamples
      val gc0 = Timing.gcMs()
      val traced = Timing.loop(plain.length, end, 0.6 * o.seconds, graphs, graphs) { i =>
        val (ms, _) = row(i, traced = true)
        // FPA-noprune and FPA-DMG each make the farthest-layer calls; NCA
        // makes the component BFS and a distance BFS from Q alone.
        val far = Replay(qs(i).g, qs(i).nodes, steiner = true)
        val nca = Replay(qs(i).g, qs(i).nodes, steiner = false)
        layers.add(far, ms - 2 * far.bfsMs - nca.bfsMs)
        ms
      }.ms
      val gc = Timing.gcMs() - gc0
      Outcome(perLayer(phases, layers, tally.answered, tally, alloc, gc, traced.length,
          Stats.median(traced) / Stats.median(plain)),
        tally.attempted, tally.failed,
        baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("untraced", plain) ++ latencyInfo("traced", traced))
    }
  }
}

/** Distributed FPA (`SparkDMCS.fpa`) on the graph and seed of
  * `fig11-local-10k`, over an edge DataFrame cached in set-up. Every answer
  * is compared with local FPA on the same query set.
  */
object SparkFpa extends Workload("fig11-spark-10k") {
  // |Q| = 2 comes first so that the median of one cycle is a multi-query
  // answer, whose cost class holds two of the three sizes.
  private val sizes = Seq(2, 4, 1)
  private val cycle = sizes.length
  override protected def usesSpark: Boolean = true

  def run(o: Main.Options): Outcome = {
    var session: Option[SparkSession] = None
    try {
      val ((fxs, qs, edges), setupS, phases) = setUpRepeatedly { () =>
        session.foreach(_.stop())
        val (fxs, qs, phases) = Fixture.buildMany(10000, sizes, 40, o.seed, graphs = 1)
        val t0 = System.nanoTime()
        val spark = Env.sparkSession()
        session = Some(spark)
        val e = GraphFrames.edgeDF(spark, fxs.head.g).cache()
        e.count()
        ((fxs, qs, e), phases :+ ("spark.setup_ms" -> Timing.ms(t0)))
      }
      val spark = session.get
      val heap = Timing.heapMb()
      val tally = new Tally(cycle)
      val answered = mutable.ArrayBuffer.empty[(Int, SparkDMCS.Result)]
      def call(i: Int): Double = {
        val q = qs(i)
        val t0 = System.nanoTime()
        val r = SparkDMCS.fpa(spark, edges, q.nodes.map(_.toLong))
        val ms = Timing.ms(t0)
        tally.record(i, q, Seq(Answer.of(r)))
        answered += i -> r
        ms
      }
      // One untimed multi-query answer compiles every plan the timed queries
      // use, the parent BFS included; the timed loops take the indices below it.
      val end = qs.lastIndexWhere(_.nodes.length > 1)
      SparkDMCS.fpa(spark, edges, qs(end).nodes.map(_.toLong))
      val sparkSetupMs = phases.toMap.apply("spark.setup_ms")
      if (!o.trace) {
        val timed = Timing.loop(0, end, o.seconds, cycle, cycle)(call)
        Outcome(endToEnd(setupS, heap, tally, Stats.median(timed.ms), timed.rate(cycle)),
          tally.attempted, tally.failed,
          baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("spark", timed.ms) ++ agreement(qs, answered.toSeq) ++
            Map("spark_setup_ms" -> sparkSetupMs))
      } else {
        val plain = Timing.loop(0, end, 0.4 * o.seconds, cycle, cycle)(call).ms
        val jobs = new SparkJobs
        spark.sparkContext.addSparkListener(jobs)
        answered.clear()
        var alloc = 0L
        val gc0 = Timing.gcMs()
        val traced = Timing.loop(plain.length, end, 0.6 * o.seconds, cycle, cycle) { i =>
          val a0 = Timing.allocatedBytes()
          val ms = call(i)
          alloc += Timing.allocatedBytes() - a0
          ms
        }.ms
        val gc = Timing.gcMs() - gc0
        jobs.awaitIdle()
        spark.sparkContext.removeSparkListener(jobs)
        // The local layers are traced on the reference FPA of the same
        // queries, after the JIT has compiled it on queries not traced.
        Timing.warmUp(end, 0.1 * o.seconds) { i =>
          Engines.fpa(qs(i).g, qs(i).nodes); Replay(qs(i).g, qs(i).nodes, steiner = true)
        }
        val layers = new LayerSamples
        answered.foreach { case (i, _) => tracedFpa(qs(i), layers) }
        val k = traced.length.toDouble
        val jt = jobs.totals
        val sparkLayers = Map(
          "spark.jobs_per_query" -> jt.jobs / k,
          "spark.stages_per_query" -> jt.stages / k,
          "spark.tasks_per_query" -> jt.tasks / k,
          "spark.shuffle_mb_per_query" -> jt.shuffleBytes / 1048576.0 / k,
          "spark.driver_ms" -> (traced.sum - jt.coveredMs) / k,
          "spark.setup_ms" -> sparkSetupMs,
          "spark.max_layer" -> Stats.median(answered.map(_._2.maxLayer.toDouble)),
          "spark.chosen_layer" -> Stats.median(answered.map(_._2.chosenLayer.toDouble))) ++
          jt.bucketMs.map { case (b, ms) => s"spark.${b}_job_ms" -> ms / k }
        // Peeler counts come from local FPA on the fixed sample of queries.
        val sample = tally.answered.map { case (q, _) => q -> Seq(Answer.of(Engines.fpa(q.g, q.nodes))) }
        Outcome(perLayer(phases.filterNot(_._1 == "spark.setup_ms"), layers, sample, tally, alloc, gc,
            traced.length, Stats.median(traced) / Stats.median(plain)),
          tally.attempted, tally.failed,
          baseInfo(o, fxs, qs.length, tally) ++ latencyInfo("untraced", plain) ++ latencyInfo("traced", traced) ++
            Map("spark_layers" -> sparkLayers) ++ agreement(qs, answered.toSeq))
      }
    } finally session.foreach(_.stop())
  }

  /** Share of Spark answers identical to local FPA on the same query set. */
  private def agreement(qs: IndexedSeq[Query], answers: Seq[(Int, SparkDMCS.Result)]): Map[String, Any] = {
    val same = answers.count { case (i, r) =>
      r.community.map(_.toInt) == Engines.fpa(qs(i).g, qs(i).nodes).community
    }
    Map("agree_frac" -> same.toDouble / answers.length, "agree_compared" -> answers.length)
  }
}
