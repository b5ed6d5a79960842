package repro.ml

/** Principal component analysis via Jacobi eigendecomposition of the
  * covariance matrix. Used for the pca1/pca2 matching predictors, which
  * summarize how much of a matching matrix's variance is captured by its
  * leading components (a diversity/uncertainty signal in LRSM).
  */
object Pca {

  /** Descending eigenvalues of the covariance of `rows` (observations x
    * dims). The means and the covariance cells sum over `rows` in order.
    */
  def eigenvalues(rows: Seq[Array[Double]]): Array[Double] = {
    require(rows.nonEmpty, "pca of empty data")
    val rs = rows.toArray
    val n = rs.length
    val d = rs(0).length
    val means = new Array[Double](d)
    var j = 0
    while (j < d) {
      var s = 0.0; var r = 0
      while (r < n) { s += rs(r)(j); r += 1 }
      means(j) = s / n
      j += 1
    }
    val denom = math.max(1, n - 1)
    val cov = Array.ofDim[Double](d, d)
    var r = 0
    while (r < n) {
      val row = rs(r)
      var i = 0
      while (i < d) {
        val di = row(i) - means(i)
        val ci = cov(i)
        j = i
        while (j < d) {
          val v = di * (row(j) - means(j)) / denom
          ci(j) += v
          if (i != j) cov(j)(i) += v
          j += 1
        }
        i += 1
      }
      r += 1
    }
    val ev = jacobi(cov)
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
  def jacobiEigenvalues(a0: Array[Array[Double]]): Array[Double] = jacobi(a0.map(_.clone()))

  /** `jacobiEigenvalues` in place on the rows of `a`: sweeps of rotations
    * over (p, q) in row order, each skipped while |a(p)(q)| is at most
    * 1e-15 when the sweep reaches it, until the squared off-diagonal mass
    * is at most 1e-12 or 100 sweeps have run.
    */
  private def jacobi(a: Array[Array[Double]]): Array[Double] = {
    val d = a.length
    var sweep = 0
    var off = offDiag(a)
    while (off > 1e-12 && sweep < 100) {
      var p = 0
      while (p < d - 1) {
        val rp = a(p)
        var q = p + 1
        while (q < d) {
          val apq = rp(q)
          if (math.abs(apq) > 1e-15) {
            val rq = a(q)
            val theta = (rq(q) - rp(p)) / (2.0 * apq)
            // theta = 0 means a 45-degree rotation (t = 1), not "no rotation".
            val t =
              if (theta == 0.0) 1.0
              else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            var k = 0
            while (k < d) {
              val rk = a(k)
              val akp = rk(p); val akq = rk(q)
              rk(p) = c * akp - s * akq
              rk(q) = s * akp + c * akq
              k += 1
            }
            k = 0
            while (k < d) {
              val apk = rp(k); val aqk = rq(k)
              rp(k) = c * apk - s * aqk
              rq(k) = s * apk + c * aqk
              k += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiag(a)
      sweep += 1
    }
    Array.tabulate(d)(i => a(i)(i))
  }

  /** Sum of the squared off-diagonal entries, in row-major order. */
  private def offDiag(a: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) {
      val r = a(i)
      var j = 0
      while (j < a.length) {
        if (i != j) s += r(j) * r(j)
        j += 1
      }
      i += 1
    }
    s
  }
}
