package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments

/** spark-submit entry point: prints the named evaluation tables
  * (`Experiments.tables`, DESIGN.md §5) in the order given. Example:
  *   spark-submit --class repro.jobs.Main target/scala-2.13/repro_*.jar fig11
  */
object Main {

  /** The one Spark session config, shared by jobs and tests. Master and
    * shuffle partitions come from SPARK_MASTER and SPARK_SHUFFLE_PARTITIONS.
    */
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val byName = Experiments.tables.map(t => t.name -> t).toMap
    val unknown = args.filterNot(byName.contains)
    if (args.isEmpty || unknown.nonEmpty) {
      unknown.foreach(a => Console.err.println(s"unknown table: $a"))
      Console.err.println("usage: repro.jobs.Main <table>...\ntables: " +
        Experiments.tables.map(_.name).mkString(" "))
      sys.exit(2)
    }
    var spark: Option[SparkSession] = None
    val startSpark = () => spark.getOrElse {
      val s = session("repro " + args.mkString(" ")); spark = Some(s); s
    }
    try args.foreach(a => println(byName(a).run(startSpark)))
    finally spark.foreach(_.stop())
  }
}
