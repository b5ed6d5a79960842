package repro.ml

/** Principal component analysis via Jacobi eigendecomposition of the
  * covariance matrix. Used for the pca1/pca2 matching predictors, which
  * summarize how much of a matching matrix's variance is captured by its
  * leading components (a diversity/uncertainty signal in LRSM).
  */
object Pca {

  /** Descending eigenvalues of the covariance of `rows` (observations x dims). */
  def eigenvalues(rows: Seq[Array[Double]]): Array[Double] = {
    require(rows.nonEmpty, "pca of empty data")
    val d = rows.head.length
    val n = rows.length
    val means = Array.tabulate(d)(j => rows.map(_(j)).sum / n)
    val cov = Array.ofDim[Double](d, d)
    for (r <- rows; i <- 0 until d; j <- i until d) {
      val v = (r(i) - means(i)) * (r(j) - means(j)) / math.max(1, n - 1)
      cov(i)(j) += v
      if (i != j) cov(j)(i) += v
    }
    val ev = jacobiEigenvalues(cov)
    java.util.Arrays.sort(ev) // ascending under Double.compare, unboxed
    ev.reverse
  }

  /** Fractions of total variance explained by components 1..k, from one
    * eigendecomposition; a fraction is 0 when the component does not exist
    * or the matrix has no variance at all.
    */
  def varianceRatios(rows: Seq[Array[Double]], k: Int): Array[Double] = {
    val ev = eigenvalues(rows).map(v => math.max(0.0, v))
    val tot = ev.sum
    Array.tabulate(k)(i => if (tot <= 1e-12 || i >= ev.length) 0.0 else ev(i) / tot)
  }

  /** Cyclic Jacobi rotations on a symmetric matrix; returns eigenvalues. */
  def jacobiEigenvalues(a0: Array[Array[Double]]): Array[Double] = {
    val d = a0.length
    val a = a0.map(_.clone())
    var sweep = 0
    var off = offDiag(a)
    while (off > 1e-12 && sweep < 100) {
      for (p <- 0 until d - 1; q <- p + 1 until d if math.abs(a(p)(q)) > 1e-15) {
        val theta = (a(q)(q) - a(p)(p)) / (2.0 * a(p)(q))
        // theta = 0 means a 45-degree rotation (t = 1), not "no rotation".
        val t =
          if (theta == 0.0) 1.0
          else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
        val c = 1.0 / math.sqrt(t * t + 1.0)
        val s = t * c
        for (k <- 0 until d) {
          val akp = a(k)(p); val akq = a(k)(q)
          a(k)(p) = c * akp - s * akq
          a(k)(q) = s * akp + c * akq
        }
        for (k <- 0 until d) {
          val apk = a(p)(k); val aqk = a(q)(k)
          a(p)(k) = c * apk - s * aqk
          a(q)(k) = s * apk + c * aqk
        }
      }
      off = offDiag(a)
      sweep += 1
    }
    Array.tabulate(d)(i => a(i)(i))
  }

  private def offDiag(a: Array[Array[Double]]): Double = {
    var s = 0.0
    for (i <- a.indices; j <- a.indices if i != j) s += a(i)(j) * a(i)(j)
    s
  }
}
