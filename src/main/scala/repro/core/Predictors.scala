package repro.core

import scala.collection.immutable.{ArraySeq, HashMap}

import repro.ml.Pca

/** Phi_LRSM: matching predictors computed over a matcher's matching matrix
  * (Sagi & Gal VLDBJ'13; Gal et al. TKDE'19 "learning to rerank").
  *
  * Precision-leaning predictors (dominants, best-pair averages, binary
  * matching weight) and recall/uncertainty-leaning predictors (matrix
  * norms, binarization error, PCA variance ratios) are both included, as
  * the paper uses the former for the Precision label and the latter for
  * Thoroughness (Section III-A).
  *
  * The computation needs a matcher's whole (sparse) matrix at once; it is a
  * pure kernel over the matcher's in-memory history.
  */
object Predictors {

  val names: Vector[String] = Vector(
    "lrsm_nSigma", "lrsm_rowCov", "lrsm_colCov",
    "lrsm_avgConf", "lrsm_maxConf", "lrsm_stdConf",
    "lrsm_dom", "lrsm_bpm", "lrsm_bbm", "lrsm_conflicts",
    "lrsm_norm1", "lrsm_norm2", "lrsm_normsinf",
    "lrsm_mcd", "lrsm_pca1", "lrsm_pca2",
  )

  /** The predictors of one history: `fromEntries` over the non-zero entries
    * of its Eq. 1 matrix, in (aIdx, bIdx) order whatever the order of
    * `history`, so that ties in the greedy bbm matching break the same way
    * every time.
    */
  def of(history: Seq[Decision], nA: Int, nB: Int): Array[Double] =
    ofFinal(MatrixOps.finalEntries(history), nA, nB)

  /** `of` from a history's Eq. 1 entries, as `MatrixOps.finalEntries`
    * gives them: in (aIdx, bIdx) order.
    */
  def ofFinal(finals: Seq[Decision], nA: Int, nB: Int): Array[Double] =
    fromEntries(finals.collect { case d if d.conf > 0.0 => (d.aIdx, d.bIdx, d.conf) }, nA, nB)

  /** Predictor vector for one matcher's non-zero entries; bbm takes tied
    * confidences in the order of `entries`.
    *
    * One pass over the entries fills per-row and per-column max, sum and
    * count arrays, indexed by the sorted distinct row and column ids. Every
    * floating-point sum runs in `entries` order, except bpm's, which adds
    * the row maxima in the iteration order of an immutable `HashMap` keyed
    * by row id (a fixed order of the id set, not row order).
    */
  def fromEntries(entries: Seq[(Int, Int, Double)], nA: Int, nB: Int): Array[Double] = {
    val n = entries.length
    if (n == 0) return new Array[Double](names.length)
    val as = new Array[Int](n); val bs = new Array[Int](n); val cs = new Array[Double](n)
    var e = 0
    entries.foreach { case (a, b, c) => as(e) = a; bs(e) = b; cs(e) = c; e += 1 }
    val rowIds = sortedDistinct(as); val colIds = sortedDistinct(bs)
    val nRows = rowIds.length; val nCols = colIds.length
    val ri = new Array[Int](n); val ci = new Array[Int](n)
    val rowMax = new Array[Double](nRows); val colMax = new Array[Double](nCols)
    val rowSum = new Array[Double](nRows); val colSum = new Array[Double](nCols)
    val rowCount = new Array[Int](nRows); val colCount = new Array[Int](nCols)
    var confSum = 0.0; var confMax = cs(0); var sqSum = 0.0; var mcdSum = 0.0
    e = 0
    while (e < n) {
      val c = cs(e)
      val r = java.util.Arrays.binarySearch(rowIds, as(e))
      val k = java.util.Arrays.binarySearch(colIds, bs(e))
      ri(e) = r; ci(e) = k
      // Maxima under Double.compare, keeping the first of equals: Seq.max.
      if (rowCount(r) == 0 || java.lang.Double.compare(rowMax(r), c) < 0) rowMax(r) = c
      if (colCount(k) == 0 || java.lang.Double.compare(colMax(k), c) < 0) colMax(k) = c
      rowSum(r) += c; colSum(k) += c
      rowCount(r) += 1; colCount(k) += 1
      confSum += c
      if (java.lang.Double.compare(confMax, c) < 0) confMax = c
      sqSum += c * c
      mcdSum += math.abs(c - math.round(c))
      e += 1
    }
    val mean = confSum / n
    val std =
      if (n < 2) 0.0
      else {
        var s = 0.0
        e = 0
        while (e < n) { val d = cs(e) - mean; s += d * d; e += 1 }
        math.sqrt(s / (n - 1))
      }

    // dom: entries that are the maximum of their row and of their column.
    // conflicts: 1:1-constraint violations, entries sharing a row or column
    // with another entry. Coherent (near-injective) matrices are what
    // careful matchers produce; conflicts signal imprecision.
    var nDom = 0; var nConflicts = 0
    e = 0
    while (e < n) {
      val c = cs(e)
      if (c >= rowMax(ri(e)) && c >= colMax(ci(e))) nDom += 1
      if (rowCount(ri(e)) > 1 || colCount(ci(e)) > 1) nConflicts += 1
      e += 1
    }

    // bpm: the mean row maximum, summed in the HashMap order of the row ids.
    var rowOrder = HashMap.empty[Int, Int]
    var i = 0
    while (i < nRows) { rowOrder = rowOrder.updated(rowIds(i), i); i += 1 }
    var rowMaxSum = 0.0
    rowOrder.valuesIterator.foreach(r => rowMaxSum += rowMax(r))

    // Greedy 1:1 bipartite matching by descending confidence, ties in
    // entries order: entries sorted by (rank of -conf, position), packed
    // into one Long each. Equal keys get equal ranks from the binary search.
    val negs = new Array[Double](n)
    e = 0
    while (e < n) { negs(e) = -cs(e); e += 1 }
    val sortedNegs = negs.clone()
    java.util.Arrays.sort(sortedNegs)
    val order = new Array[Long](n)
    e = 0
    while (e < n) {
      order(e) = (java.util.Arrays.binarySearch(sortedNegs, negs(e)).toLong << 32) | e
      e += 1
    }
    java.util.Arrays.sort(order)
    val usedRow = new Array[Boolean](nRows); val usedCol = new Array[Boolean](nCols)
    var bbmWeight = 0.0
    e = 0
    while (e < n) {
      val j = order(e).toInt
      if (!usedRow(ri(j)) && !usedCol(ci(j))) {
        usedRow(ri(j)) = true; usedCol(ci(j)) = true; bbmWeight += cs(j)
      }
      e += 1
    }

    // PCA over the dense occupied-rows x occupied-cols submatrix.
    val pca =
      if (nRows < 2 || nCols < 2) Array(1.0, 0.0)
      else {
        val dense = Array.ofDim[Double](nRows, nCols)
        e = 0
        while (e < n) { dense(ri(e))(ci(e)) = cs(e); e += 1 }
        Pca.varianceRatios(ArraySeq.unsafeWrapArray(dense), 2)
      }

    Array(
      n.toDouble,
      nRows.toDouble / nA,
      nCols.toDouble / nB,
      mean, confMax, std,
      nDom.toDouble / n, rowMaxSum / nRows, bbmWeight / n, nConflicts.toDouble / n,
      max(colSum), math.sqrt(sqSum), max(rowSum),
      mcdSum / n, pca(0), pca(1),
    )
  }

  /** The distinct values of `xs`, ascending. */
  private def sortedDistinct(xs: Array[Int]): Array[Int] = {
    val s = xs.clone()
    java.util.Arrays.sort(s)
    var k = 0; var i = 0
    while (i < s.length) {
      if (i == 0 || s(i) != s(k - 1)) { s(k) = s(i); k += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(s, k)
  }

  /** The maximum of a non-empty array under Double.compare. */
  private def max(xs: Array[Double]): Double = {
    var m = xs(0); var i = 1
    while (i < xs.length) { if (java.lang.Double.compare(m, xs(i)) < 0) m = xs(i); i += 1 }
    m
  }
}
