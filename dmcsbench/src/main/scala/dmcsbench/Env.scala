package dmcsbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._

/** The machine, JVM and Spark settings a result was measured with. The
  * launcher passes what the JVM cannot see (cache sizes, git sha, source
  * digest, per-run temporary directory) as `dmcsbench.*` system properties.
  */
object Env {
  private def prop(k: String): String = sys.props.getOrElse(s"dmcsbench.$k", "unknown")

  /** Spark runs `local[k]` with k = min(2, nproc), leaving cores for the
    * Spark driver, the JIT and the collector; two shuffle partitions per thread.
    */
  val sparkThreads: Int = math.min(2, Runtime.getRuntime.availableProcessors)
  val shufflePartitions: Int = 2 * sparkThreads

  def sparkSession(): SparkSession = {
    val tmp = sys.props.getOrElse("dmcsbench.tmp", System.getProperty("java.io.tmpdir"))
    val s = SparkSession.builder()
      .master(s"local[$sparkThreads]")
      .appName("dmcsbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp)
      .config("spark.sql.warehouse.dir", s"$tmp/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def block(seed: Long, spark: Boolean): Map[String, Any] = {
    val rt = ManagementFactory.getRuntimeMXBean
    ListMap(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "caches" -> prop("caches"),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.vm.version")}",
      "jvm_flags" -> rt.getInputArguments.asScala.filter(a => a.startsWith("-X")).toSeq,
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
      "spark_master" -> (if (spark) s"local[$sparkThreads]" else "none"),
      "shuffle_partitions" -> (if (spark) shufflePartitions else 0),
      "git_sha" -> prop("git"),
      "source_sha256" -> prop("sources"),
      "seed" -> seed)
  }
}
