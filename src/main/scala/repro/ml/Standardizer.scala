package repro.ml

/** Per-column z-scoring fit on training data and applied to test data.
  * Constant columns map to 0 rather than dividing by zero.
  */
final class Standardizer private (val means: Array[Double], val stds: Array[Double])
    extends Serializable {
  def transform(x: Array[Double]): Array[Double] = {
    require(x.length == means.length, s"dim mismatch: ${x.length} vs ${means.length}")
    Array.tabulate(x.length) { j =>
      if (stds(j) == 0.0) 0.0 else (x(j) - means(j)) / stds(j)
    }
  }
}

object Standardizer {
  def fit(xs: Seq[Array[Double]]): Standardizer = {
    require(xs.nonEmpty, "cannot fit standardizer on empty data")
    val d = xs.head.length
    val means = Array.tabulate(d)(j => xs.map(_(j)).sum / xs.length)
    val stds = Array.tabulate(d) { j =>
      val m = means(j)
      math.sqrt(xs.map(x => (x(j) - m) * (x(j) - m)).sum / xs.length)
    }
    new Standardizer(means, stds)
  }
}
