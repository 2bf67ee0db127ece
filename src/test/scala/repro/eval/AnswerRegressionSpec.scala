package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{GraphCtx, LocalModularity, QueryBiased}
import repro.core.Peeler
import repro.graph.{GraphGen, GroundTruthGraph}

/** Pins the answers of the peeling variants and the two peeling baselines.
  * Each (graph, algorithm) pair has one digest over its answers to the
  * `QueryGen` sets at |Q| in {1, 2, 4}: the sorted community, the exact bits
  * of the score, `removed` and `ok` (the baselines report only their
  * community). A change meant to alter answers updates the digests and says
  * which ones moved and why.
  */
class AnswerRegressionSpec extends AnyFunSuite {

  private def ring: GroundTruthGraph =
    GroundTruthGraph("ring", GraphGen.ringOfCliques(30, 6), (0 until 30).map(c => (c * 6 until c * 6 + 6).toSet))

  private val inputs: Seq[(String, () => GroundTruthGraph)] =
    Seq[(String, () => GroundTruthGraph)](("karate", () => GraphGen.karate), ("ring", () => ring)) ++
      (1 to 3).map(s => (s"lfr300-$s", () => GraphGen.lfr(300, 10, 40, 0.3, 20, 60, seed = s))) ++
      (101 to 103).map(s => (s"lfr1000-$s", () => GraphGen.lfr(1000, 20, 200, 0.4, 20, 1000, seed = s)))

  private def peeled(r: Peeler.Result): String =
    s"${r.community.toSeq.sorted.mkString(",")}|${java.lang.Double.doubleToLongBits(r.score)}|${r.removed}|${r.ok}"
  private def found(c: Option[Set[Int]]): String = c.fold("none")(_.toSeq.sorted.mkString(","))

  private val algos: Seq[(String, (GraphCtx, Seq[Int]) => String)] = Seq(
    ("NCA", (c, q) => peeled(Peeler.nca(c.g, q))),
    ("NCA-DR", (c, q) => peeled(Peeler.ncaDR(c.g, q))),
    ("FPA", (c, q) => peeled(Peeler.fpa(c.g, q))),
    ("FPA-noprune", (c, q) => peeled(Peeler.fpaNoPrune(c.g, q))),
    ("FPA-DMG", (c, q) => peeled(Peeler.fpaDMG(c.g, q))),
    ("wu2015", (c, q) => found(QueryBiased.find(c.g, q))),
    ("icwi2008", (c, q) => found(LocalModularity.find(c.g, q))))

  private def digest(answers: Seq[String]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    answers.foreach(a => md.update((a + "\n").getBytes("UTF-8")))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  // graph -> the digests of `algos`, in order
  private val expected: Map[String, Seq[String]] = Map(
    "karate" -> Seq("965e2ee3a34dfcff", "679f84aaf1375372", "028e77acae63f969", "51d031dde170b406", "baaad70b1a325f15", "11a267a4d272bb3e", "a97dd32b8ef9af2e"),
    "ring" -> Seq("9f2e8c080c3be2c7", "9f2e8c080c3be2c7", "cecfbd48dfa2b5c0", "9f2e8c080c3be2c7", "cecfbd48dfa2b5c0", "216ef8abdf354606", "216ef8abdf354606"),
    "lfr300-1" -> Seq("b466b4d49af304d8", "d4b5c407725147f4", "7e7f8830ca625482", "151905a3314c0ffa", "1a212dc3f260339e", "69d92ea2c73710cf", "30b5e2b87b052dc0"),
    "lfr300-2" -> Seq("8c269e9f39ac089e", "8fbe2d127b5b352b", "71b42493a9e3a6d6", "23c2b4a1699d6f5b", "973cc3c8ed6b7e0f", "c5440b7137b3ff88", "e16ba92a7ba5b844"),
    "lfr300-3" -> Seq("bbd8c68a7b43ab22", "aefbbc99f008164e", "7f1201eb386c61fa", "d4fbefc12d6125ff", "9a43fa53e6d1d447", "25f075d5cb546223", "95ff55557a07979a"),
    "lfr1000-101" -> Seq("ab93eb7698d191fa", "c78357afcd6779f6", "f335a5728abce5c2", "38e0874c810ad0b6", "b65512d50fd65229", "9fb70ab7738c55bf", "e48a3066b59ab4a5"),
    "lfr1000-102" -> Seq("e99f665d7fcbae90", "705819648bd20f33", "d5a9e07d4b22cf6b", "f80e6fb8bba4b62b", "a3e4b0af64100df6", "486a329d4c9f82f1", "50991ac1a0c85527"),
    "lfr1000-103" -> Seq("07c7539d0c53ad1b", "2486863ed674785a", "8e5b914380a3288f", "255afcb7e3b96e89", "de8cbbbec16c6605", "4d9a235c12aab7ae", "34cdde0c110cc43c"))

  for ((name, make) <- inputs) {
    test(s"answers on $name are unchanged") {
      val gt = make()
      val ctx = new GraphCtx(gt.graph)
      val sets = Seq(1, 2, 4).flatMap(k => QueryGen.querySets(gt, ctx, 3, k, seed = 1000 + k).map(_._1))
      assert(sets.length == 9)
      val got = algos.map { case (_, run) => digest(sets.map(q => run(ctx, q))) }
      val moved = algos.indices.filter(i => expected(name)(i) != got(i)).map(i => algos(i)._1)
      assert(moved.isEmpty, s"digests moved for ${moved.mkString(", ")}: ${got.mkString(", ")}")
    }
  }
}
