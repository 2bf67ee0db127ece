package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.{Peeler, SparkDMCS}
import repro.graph._
import scala.collection.mutable

/** Runners for every evaluation table (see DESIGN.md §5); each returns a
  * printable table. `tables` lists them at full scale, and is what the job
  * (`repro.jobs.Main`) and the bench suite (`TablesBench`) run.
  */
object Experiments {

  /** One evaluation table: its name on the command line, and a runner that
    * prints it at full scale. `run` gets a session factory and calls it only
    * if the table needs Spark.
    */
  final case class Table(name: String, run: (() => SparkSession) => String)

  /** Every evaluation table, in the paper's order. */
  val tables: Seq[Table] = Seq(
    Table("table1", _ => table1()),
    Table("table2", _ => table2()),
    Table("fig8-9", _ => syntheticSweep()),
    Table("fig10", _ => querySetSize()),
    Table("fig11", spark => scalability(spark())),
    Table("fig12", _ => modularityMeasures()),
    Table("fig13", _ => pruning()),
    Table("fig14", _ => variants()),
    Table("fig15-16", _ => smallRealWorld()),
    Table("fig17-18", _ => overlappingRealWorld()),
    Table("fig19", _ => varyK()),
    Table("case-study", _ => caseStudy()))

  // --------------------------------------------------------- algorithms
  final case class Algo(name: String, run: (GraphCtx, Seq[Int]) => Option[Set[Int]])

  private def peelerAlgo(name: String, f: (LocalGraph, Seq[Int]) => Peeler.Result): Algo =
    Algo(name, (ctx, q) => { val r = f(ctx.g, q); if (r.ok) Some(r.community) else None })

  // the algorithms that more than one table runs (ShapeBench times the first two)
  private[repro] val fpa = peelerAlgo("FPA", (g, q) => Peeler.fpa(g, q))
  private[repro] val fpaNoPrune = peelerAlgo("FPA-noprune", (g, q) => Peeler.fpaNoPrune(g, q))
  private val nca = peelerAlgo("NCA", (g, q) => Peeler.nca(g, q))
  private val kc = Algo("kc", (c, q) => CoreTruss.kc(c, q, 3))
  private val kecc = Algo("kecc", (c, q) => KEcc.kecc(c.g, q, 3))
  private val highcore = Algo("highcore", (c, q) => CoreTruss.highcore(c, q))

  /** The algorithms reported on the synthetic benchmark (Figs 8/9). */
  def coreAlgos(includeNca: Boolean = true): Seq[Algo] = {
    val base = Seq(
      kc,
      Algo("kt", (c, q) => CoreTruss.kt(c, q, 4)),
      kecc,
      highcore,
      Algo("hightruss", (c, q) => CoreTruss.hightruss(c, q)),
      Algo("wu2015", (c, q) => QueryBiased.find(c.g, q)),
      Algo("huang2015", (c, q) => ClosestTruss.find(c, q)),
      fpa)
    if (includeNca) base :+ nca else base
  }

  /** Extra baselines only run on the small real-world graphs (Figs 15/16). */
  def smallExtras(includeGn: Boolean = true): Seq[Algo] = {
    val b = mutable.ArrayBuffer(
      Algo("clique", (c, q) => CliquePerc.find(c.g, q)),
      Algo("CNM", (c, q) => CNM.find(c.g, q)),
      Algo("icwi2008", (c, q) => LocalModularity.find(c.g, q)),
    )
    if (includeGn) b += Algo("GN", (c, q) => GN.find(c.g, q))
    b.toSeq
  }

  // ----------------------------------------------------------- evaluation
  final case class EvalRow(algo: String, medNmi: Double, medAri: Double, medF1: Double,
                           meanMs: Double, meanSize: Double, fails: Int)

  /** Run `algos` over `querySets`; metrics use the best-matching ground-truth
    * community containing all the queries (paper's protocol for overlapping
    * ground truth; identical to the planted community when disjoint). Each
    * algorithm is first called once, untimed, on the first query set, so
    * that `meanMs` times neither the JIT nor `ctx`'s lazy decompositions.
    * This is the one place the tables read the clock.
    */
  def evaluate(gt: GroundTruthGraph, ctx: GraphCtx, algos: Seq[Algo],
               querySets: Seq[(Seq[Int], Set[Int])]): Seq[EvalRow] = {
    val n = gt.graph.n
    algos.map { algo =>
      def call(q: Seq[Int]) = try algo.run(ctx, q) catch { case _: StackOverflowError => None }
      querySets.headOption.foreach { case (q, _) => call(q) }
      val nmis = mutable.ArrayBuffer.empty[Double]
      val aris = mutable.ArrayBuffer.empty[Double]
      val f1s = mutable.ArrayBuffer.empty[Double]
      val times = mutable.ArrayBuffer.empty[Double]
      val sizes = mutable.ArrayBuffer.empty[Double]
      var fails = 0
      for ((q, ownComm) <- querySets) {
        val t0 = System.nanoTime()
        val res = call(q)
        times += (System.nanoTime() - t0) / 1e6
        res match {
          case Some(c) if c.nonEmpty =>
            val cands = {
              val cs = gt.communities.filter(cm => q.forall(cm.contains))
              if (cs.nonEmpty) cs else IndexedSeq(ownComm)
            }
            nmis += cands.map(t => Metrics.nmi(n, c, t)).max
            aris += cands.map(t => Metrics.ari(n, c, t)).max
            f1s += cands.map(t => Metrics.f1(c, t)).max
            sizes += c.size.toDouble
          case _ =>
            fails += 1
            nmis += 0.0; aris += 0.0; f1s += 0.0
        }
      }
      EvalRow(algo.name, Metrics.median(nmis.toSeq), Metrics.median(aris.toSeq),
        Metrics.median(f1s.toSeq), Metrics.mean(times.toSeq), Metrics.mean(sizes.toSeq), fails)
    }
  }

  // ----------------------------------------------------------- formatting
  def formatTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(fmt(header)).append('\n')
    sb.append(widths.map("-" * _).mkString("  ")).append('\n')
    rows.foreach(r => sb.append(fmt(r)).append('\n'))
    sb.toString
  }

  private def f(x: Double): String = if (x.isNaN) "n/a" else f"$x%.4f"
  private def ms(x: Double): String = if (x.isNaN) "n/a" else f"$x%.1f"

  def evalRowsToTable(title: String, keyName: String,
                      rows: Seq[(String, EvalRow)]): String =
    formatTable(title,
      Seq(keyName, "algo", "medNMI", "medARI", "medF1", "meanMs", "meanSize", "fails"),
      rows.map { case (kv, r) =>
        Seq(kv, r.algo, f(r.medNmi), f(r.medAri), f(r.medF1), ms(r.meanMs),
          ms(r.meanSize), r.fails.toString)
      })

  // ------------------------------------------------- Table 1: dataset stats
  def table1(scale: Double = 1.0): String = {
    val paper = Map(
      "dolphin-standin" -> (62, 159, 2), "karate" -> (34, 78, 2),
      "polblogs-standin" -> (1224, 16718, 2), "mexican-standin" -> (35, 117, 2),
      "dblp-lite" -> (317080, 1049866, 13477), "youtube-lite" -> (1134890, 2987624, 8385),
      "livejournal-lite" -> (3997962, 34681189, 287512))
    val ds = Seq(GraphGen.karate, GraphGen.dolphinStandIn(), GraphGen.mexicanStandIn(),
      GraphGen.polblogsStandIn(), GraphGen.dblpLite(scale), GraphGen.youtubeLite(scale),
      GraphGen.livejournalLite(scale))
    formatTable("Table 1: real-world datasets (stand-ins; paper values alongside)",
      Seq("dataset", "|V|", "|E|", "|C|", "paper|V|", "paper|E|", "paper|C|"),
      ds.map { g =>
        val (pv, pe, pc) = paper(g.name)
        Seq(g.name, g.graph.n.toString, g.graph.m.toString, g.communities.length.toString,
          pv.toString, pe.toString, pc.toString)
      })
  }

  // ---------------------------------------- Table 2: LFR realized statistics
  def table2(n: Int = 3000, seed: Long = 7): String = {
    val configs =
      Seq(20, 30, 40, 50).map(d => (s"davg=$d", d.toDouble, 200, 0.4)) ++
      Seq(200, 300, 400, 500).map(dm => (s"dmax=$dm", 40.0, dm, 0.4)) ++
      Seq(0.2, 0.3, 0.4).map(mu => (s"mu=$mu", 40.0, 200, mu))
    val rows = configs.map { case (label, davg, dmax, mu) =>
      val gt = GraphGen.lfr(n, davg, dmax, mu, minC = 20, maxC = 1000, seed)
      val g = gt.graph
      val realMu = {
        var ext = 0L
        g.edges.foreach { case (u, v) => if (gt.labels(u) != gt.labels(v)) ext += 1 }
        ext.toDouble / math.max(1, g.m)
      }
      Seq(label, g.n.toString, g.m.toString, f"${2.0 * g.m / g.n}%.1f",
        g.degree.max.toString, f"$realMu%.3f", gt.communities.length.toString,
        gt.communities.map(_.size).min.toString, gt.communities.map(_.size).max.toString)
    }
    formatTable(s"Table 2: LFR realized stats (n=$n; paper targets in row label)",
      Seq("config", "n", "m", "davgReal", "dmaxReal", "muReal", "|C|", "minC", "maxC"), rows)
  }

  // -------------------------------------------- Figs 8/9: synthetic sweeps
  def syntheticSweep(n: Int = 3000, nQuerySets: Int = 5, qSize: Int = 2,
                     seed: Long = 42): String = {
    val settings =
      Seq(0.2, 0.3, 0.4).map(mu => (s"mu=$mu", 40.0, 200, mu)) ++
      Seq(20, 30, 50).map(d => (s"davg=$d", d.toDouble, 200, 0.4)) ++
      Seq(300, 400, 500).map(dm => (s"dmax=$dm", 40.0, dm, 0.4))
    val out = new StringBuilder
    val allRows = mutable.ArrayBuffer.empty[(String, EvalRow)]
    for ((label, davg, dmax, mu) <- settings) {
      val gt = GraphGen.lfr(n, davg, dmax, mu, minC = 20, maxC = 1000, seed)
      val ctx = new GraphCtx(gt.graph)
      val qs = QueryGen.querySets(gt, ctx, nQuerySets, qSize, seed + label.hashCode)
      evaluate(gt, ctx, coreAlgos(), qs)
        .foreach(r => allRows += ((label, r)))
    }
    out.append(evalRowsToTable(
      s"Figs 8/9: effectiveness & efficiency on LFR (n=$n, $nQuerySets query sets, |Q|=$qSize)",
      "setting", allRows.toSeq))
    out.toString
  }

  // --------------------------------------------------- Fig 10: effect of |Q|
  def querySetSize(n: Int = 3000, sizes: Seq[Int] = Seq(1, 2, 4, 8),
                   nQuerySets: Int = 5, seed: Long = 43): String = {
    val gt = GraphGen.lfr(n, 40.0, 200, 0.4, 20, 1000, seed)
    val ctx = new GraphCtx(gt.graph)
    val rows = for {
      s <- sizes
      qs = QueryGen.querySets(gt, ctx, nQuerySets, s, seed + s)
      r <- evaluate(gt, ctx, Seq(kc, kecc, nca, fpa), qs)
    } yield (s"|Q|=$s", r)
    evalRowsToTable(s"Fig 10: effect of |Q| (LFR n=$n)", "|Q|", rows)
  }

  // ------------------------------------------------- Fig 11: scalability
  def scalability(spark: SparkSession, sizes: Seq[Int] = Seq(10000, 25000, 50000, 100000),
                  ncaUpTo: Int = 25000, seed: Long = 44): String = {
    val rows = sizes.map { n =>
      val gt = GraphGen.lfr(n, 20.0, 200, 0.4, 20, 1000, seed)
      val ctx = new GraphCtx(gt.graph)
      val qs = QueryGen.querySets(gt, ctx, nSets = 8, qSize = 1, seed = seed + n)
      val edges = GraphFrames.edgeDF(spark, ctx.g).cache()
      val fpaSpark = Algo("FPA(spark)", (_, q) => {
        val r = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
        if (r.ok) Some(r.community.map(_.toInt)) else None
      })
      val algos = Seq(kc, highcore, fpa) ++ Option.when(n <= ncaUpTo)(nca) :+ fpaSpark
      val meanMs = evaluate(gt, ctx, algos, qs).map(r => r.algo -> r.meanMs).toMap
      edges.unpersist()
      n.toString +: Seq(kc, highcore, fpa, nca, fpaSpark)
        .map(a => ms(meanMs.getOrElse(a.name, Double.NaN)))
    }
    formatTable("Fig 11: scalability (mean ms per query)",
      Seq("n", "kc", "highcore", "FPA(local)", "NCA", "FPA(spark)"), rows)
  }

  /** `algos` on `nQuerySets` query sets of |Q| = 2 on LFR(n, davg 40, dmax 200,
    * µ 0.4), the default setting of Figs 12–14, as rows keyed "default".
    */
  private def onDefaultLfr(n: Int, nQuerySets: Int, seed: Long,
                           algos: Seq[Algo]): Seq[(String, EvalRow)] = {
    val gt = GraphGen.lfr(n, 40.0, 200, 0.4, 20, 1000, seed)
    val ctx = new GraphCtx(gt.graph)
    evaluate(gt, ctx, algos, QueryGen.querySets(gt, ctx, nQuerySets, qSize = 2, seed))
      .map(("default", _))
  }

  // ------------------------------------- Fig 12: which modularity to optimize
  def modularityMeasures(n: Int = 3000, nQuerySets: Int = 10, seed: Long = 45): String = {
    // un-pruned FPA: the objective sees the full chain of intermediates, so
    // classic modularity's preference for large communities (resolution
    // limit) is visible, as in the paper
    val rows = onDefaultLfr(n, nQuerySets, seed, Seq(
      peelerAlgo("FPA-DM", (g, q) => Peeler.fpaNoPrune(g, q, Peeler.DmObjective)),
      peelerAlgo("FPA-CM", (g, q) => Peeler.fpaNoPrune(g, q, Peeler.CmObjective)),
      peelerAlgo("FPA-GMD", (g, q) => Peeler.fpaNoPrune(g, q, Peeler.GmdObjective))))
    val sizeDm = rows.find(_._2.algo == "FPA-DM").map(_._2.meanSize).getOrElse(Double.NaN)
    val sizeCm = rows.find(_._2.algo == "FPA-CM").map(_._2.meanSize).getOrElse(Double.NaN)
    evalRowsToTable("Fig 12: objective used to select the best subgraph", "setting", rows) +
      f"size ratio CM/DM = ${sizeCm / sizeDm}%.1f (paper: 18x)\n"
  }

  // ----------------------------------------------- Fig 13: pruning strategy
  def pruning(n: Int = 3000, nQuerySets: Int = 10, seed: Long = 46): String =
    evalRowsToTable("Fig 13: layer-based pruning", "setting",
      onDefaultLfr(n, nQuerySets, seed, Seq(fpa, fpaNoPrune)))

  // -------------------------------------------------- Fig 14: variants
  def variants(n: Int = 3000, nQuerySets: Int = 5, seed: Long = 47): String = {
    val algos = Seq(
      nca,
      peelerAlgo("NCA-DR", (g, q) => Peeler.ncaDR(g, q)),
      peelerAlgo("FPA-DMG", (g, q) => Peeler.fpaDMG(g, q)),
      fpa,
      // no-pruning versions expose the cost of Λ's instability (the paper's
      // 150x gap): with pruning the candidate layer is tiny and hides it
      peelerAlgo("FPA-DMG-np", (g, q) =>
        Peeler.run(g, q, Peeler.FarthestLayer, Peeler.DMGain, layerPrune = false)),
      fpaNoPrune.copy(name = "FPA-np"))
    evalRowsToTable("Fig 14: variants (a/b x c/d)", "setting",
      onDefaultLfr(n, nQuerySets, seed, algos))
  }

  // ------------------------------------- Figs 15/16: small real-world graphs
  def smallRealWorld(nQuerySets: Int = 10, seed: Long = 48): String = {
    val ds = Seq(GraphGen.karate, GraphGen.dolphinStandIn(), GraphGen.mexicanStandIn(),
      GraphGen.polblogsStandIn())
    val rows = mutable.ArrayBuffer.empty[(String, EvalRow)]
    for (gt <- ds) {
      val ctx = new GraphCtx(gt.graph)
      val qs = QueryGen.querySets(gt, ctx, nQuerySets, qSize = 1, seed, minTruss = 4)
      // paper: GN does not finish Polblogs within 24h; mirror with a budget
      val isBig = gt.graph.n > 500
      val algos = coreAlgos() ++ smallExtras(includeGn = !isBig)
      evaluate(gt, ctx, algos, qs).foreach(r => rows += ((gt.name, r)))
      if (isBig) rows += ((gt.name, EvalRow("GN", Double.NaN, Double.NaN, Double.NaN,
        Double.NaN, Double.NaN, nQuerySets)))
    }
    evalRowsToTable("Figs 15/16: graphs with distinct communities", "dataset", rows.toSeq)
  }

  // --------------------------- Figs 17/18: overlapping/real-world (lite) sets
  def overlappingRealWorld(scale: Double = 1.0, nQuerySets: Int = 10,
                           seed: Long = 49): String = {
    val ds = Seq(GraphGen.dblpLite(scale), GraphGen.youtubeLite(scale),
      GraphGen.livejournalLite(scale))
    val rows = mutable.ArrayBuffer.empty[(String, EvalRow)]
    for (gt <- ds) {
      val ctx = new GraphCtx(gt.graph)
      val qs = QueryGen.querySets(gt, ctx, nQuerySets, qSize = 1, seed, minTruss = 4)
      val algos = coreAlgos(includeNca = false)
      evaluate(gt, ctx, algos, qs).foreach(r => rows += ((gt.name, r)))
    }
    evalRowsToTable("Figs 17/18: overlapping-community datasets (lite stand-ins)",
      "dataset", rows.toSeq)
  }

  // ------------------------------------------------------ Fig 19: varying k
  def varyK(scale: Double = 1.0, ks: Seq[Int] = Seq(3, 4, 5, 6, 7),
            nQuerySets: Int = 10, seed: Long = 50): String = {
    val ds = Seq(GraphGen.dblpLite(scale), GraphGen.youtubeLite(scale))
    val rows = mutable.ArrayBuffer.empty[(String, EvalRow)]
    for (gt <- ds) {
      val ctx = new GraphCtx(gt.graph)
      val qs = QueryGen.querySets(gt, ctx, nQuerySets, qSize = 1, seed, minTruss = 4)
      for (k <- ks) {
        val algos = Seq(
          Algo(s"kc(k=$k)", (c, q) => CoreTruss.kc(c, q, k)),
          Algo(s"kecc(k=$k)", (c, q) => KEcc.kecc(c.g, q, k)),
          Algo(s"kt(k=$k)", (c, q) => CoreTruss.kt(c, q, k)))
        evaluate(gt, ctx, algos, qs).foreach(r => rows += ((gt.name, r)))
      }
      evaluate(gt, ctx, Seq(fpa), qs).foreach(r => rows += ((gt.name, r)))
    }
    evalRowsToTable("Fig 19: effect of the user parameter k", "dataset", rows.toSeq)
  }

  // ----------------------------------------------- §6.3.2 case study (hub)
  def caseStudy(scale: Double = 1.0, seed: Long = 51): String = {
    val gt = GraphGen.dblpLite(scale, seed)
    val g = gt.graph
    val ctx = new GraphCtx(g)
    val q = (0 until g.n).maxBy(g.degree(_))
    val fpa = Peeler.fpa(g, Seq(q)).community
    val kt3 = CoreTruss.kt(ctx, Seq(q), 3).getOrElse(Set(q))
    val kc3 = CoreTruss.kc(ctx, Seq(q), 3).getOrElse(Set(q))
    def stats(name: String, c: Set[Int]): Seq[String] = {
      val others = c - q
      val adjFrac =
        if (others.isEmpty) 1.0
        else g.adj(q).count(others.contains).toDouble / others.size
      val bs = mutable.BitSet.empty; c.foreach(bs += _)
      val bet = GraphAlgos.betweenness(g, bs)._1
      val eig = Centrality.eigen(g, bs)
      def rank(m: mutable.HashMap[Int, Double]): Int =
        1 + m.count { case (v, x) => v != q && x > m(q) }
      Seq(name, c.size.toString, f"$adjFrac%.3f", rank(bet).toString, rank(eig).toString)
    }
    formatTable(s"Case study: query = max-degree hub (node $q, deg=${g.degree(q)}) on ${gt.name}",
      Seq("community", "size", "fracAdjToQ", "betweennessRank", "eigenRank"),
      Seq(stats("FPA", fpa), stats("3-truss", kt3), stats("3-core", kc3)))
  }
}
