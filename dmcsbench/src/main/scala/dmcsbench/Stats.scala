package dmcsbench

/** Summary statistics for latency samples. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length
    if (k % 2 == 1) s(k / 2) else (s(k / 2 - 1) + s(k / 2)) / 2.0
  }

  /** The nearest-rank `q`-quantile (0 < q < 1), kept only when at least
    * `minBeyond` samples lie above it; a percentile resting on fewer samples
    * than that is mostly noise.
    */
  def percentile(xs: collection.Seq[Double], q: Double, minBeyond: Int = 10): Option[Double] = {
    require(q > 0 && q < 1, s"quantile $q not in (0,1)")
    val rank = math.ceil(q * xs.length).toInt
    if (xs.isEmpty || xs.length - rank < minBeyond) None
    else Some(xs.sorted.apply(rank - 1))
  }

  def mean(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }
}
