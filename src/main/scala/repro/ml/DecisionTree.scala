package repro.ml

/** The CART tree grower of [[RandomForest]], with Gini impurity, depth at
  * most 6 and at least 2 rows per leaf. Each split considers `k` features
  * drawn uniformly at the node.
  *
  * A tree grows on a [[DecisionTree.Columns]] view of its training rows,
  * which gives each value its dense rank among the column's distinct
  * values in `java.lang.Double.compare` order. A node counts its rows and
  * their positives per rank of a candidate feature and scans the non-empty
  * ranks in ascending order, so it sorts nothing. This splits exactly as a
  * sort by value would: that scan only considers a boundary between two
  * rows whose values differ (`vHi > vLo`), and tied rows share one rank, so
  * they never straddle such a boundary. The left side of a boundary is then
  * exactly the rows whose rank is at most `vLo`'s, so its size, its positive
  * count, the gain and the threshold `(vLo + vHi) / 2` are those of the
  * sort, and the boundaries come in the same ascending order, so the first
  * best gain is the same one. `-0.0` and `0.0` have ranks of their own, and
  * every NaN shares the top rank; `vHi > vLo` is false across both pairs,
  * as it is in the sort.
  */
object DecisionTree {
  private val MaxDepth = 6
  private val MinLeaf = 2

  /** Grows a tree on the view's rows `rows` (repeats allowed, as in a
    * bootstrap sample), drawing `k` of the view's features at each split;
    * `ys` holds the label of every view row.
    */
  private[ml] def grow(cols: Columns, ys: Array[Boolean], rows: Array[Int], k: Int,
                       seed: Long): TreeModel = {
    val rnd = new java.util.Random(seed)
    val ranks = cols.distinct.foldLeft(0)(_ max _.length)
    TreeModel(grow(cols, ys, rows, k, 0, rnd, new Array[Int](ranks), new Array[Int](ranks)))
  }

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) return 0.0
    val p = pos.toDouble / n
    2.0 * p * (1.0 - p)
  }

  /** `count` and `posCount` are all-zero scratch space for a feature's
    * per-rank row and positive counts, shared down the tree; the scan
    * leaves them all-zero again.
    */
  private def grow(cols: Columns, ys: Array[Boolean], idx: Array[Int], k: Int,
                   depth: Int, rnd: java.util.Random,
                   count: Array[Int], posCount: Array[Int]): TreeNode = {
    val m = idx.length
    var pos = 0
    var i = 0
    while (i < m) { if (ys(idx(i))) pos += 1; i += 1 }
    val prob = pos.toDouble / m
    if (depth >= MaxDepth || m < 2 * MinLeaf || pos == 0 || pos == m)
      return Leaf(prob)

    val feats = Draws.distinctInts(rnd, cols.d, k)

    var bestGain = 1e-12
    var bestFeat = -1
    var bestThr = 0.0
    val parentImp = gini(pos, m)
    var fi = 0
    while (fi < feats.length) {
      val f = feats(fi)
      val distinct = cols.distinct(f); val ranks = cols.ranks(f)
      i = 0
      while (i < m) {
        val row = idx(i); val r = ranks(row)
        count(r) += 1
        if (ys(row)) posCount(r) += 1
        i += 1
      }
      // nL rows, leftPos of them positive, hold the ranks up to `lo`, the
      // last non-empty rank scanned; each boundary lo | r is tested before
      // rank r joins the left side.
      var nL = 0
      var leftPos = 0
      var lo = -1
      var r = 0
      while (nL < m) {
        if (count(r) > 0) {
          if (lo >= 0) {
            val vLo = distinct(lo); val vHi = distinct(r)
            if (vHi > vLo && nL >= MinLeaf && m - nL >= MinLeaf) {
              val nR = m - nL
              val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / m
              val gain = parentImp - imp
              if (gain > bestGain) {
                bestGain = gain; bestFeat = f; bestThr = (vLo + vHi) / 2.0
              }
            }
          }
          nL += count(r); leftPos += posCount(r)
          count(r) = 0; posCount(r) = 0
          lo = r
        }
        r += 1
      }
      fi += 1
    }
    if (bestFeat < 0) return Leaf(prob)
    val splitValues = cols.values(bestFeat)
    var nLeft = 0
    i = 0
    while (i < m) { if (splitValues(idx(i)) <= bestThr) nLeft += 1; i += 1 }
    if (nLeft == 0 || nLeft == m) return Leaf(prob)
    val l = new Array[Int](nLeft); val rt = new Array[Int](m - nLeft)
    var a = 0; var b = 0
    i = 0
    while (i < m) {
      val row = idx(i)
      if (splitValues(row) <= bestThr) { l(a) = row; a += 1 } else { rt(b) = row; b += 1 }
      i += 1
    }
    Split(bestFeat, bestThr, grow(cols, ys, l, k, depth + 1, rnd, count, posCount),
      grow(cols, ys, rt, k, depth + 1, rnd, count, posCount))
  }

  /** Column-major view of a training set, built once per forest: per
    * feature, the values of every row, the column's distinct values in
    * ascending `java.lang.Double.compare` order (so `-0.0` comes before
    * `0.0`, and every NaN is one value, the last), and each row's dense
    * rank, the index of its value among them.
    */
  private[ml] final class Columns private (val values: Array[Array[Double]]) {
    val d: Int = values.length
    val distinct: Array[Array[Double]] = values.map(Columns.sortedDistinct)
    // Arrays.sort and binarySearch on double[] both order by Double.compare.
    val ranks: Array[Array[Int]] =
      Array.tabulate(d)(f => values(f).map(java.util.Arrays.binarySearch(distinct(f), _)))
  }

  private[ml] object Columns {
    def apply(xs: Seq[Array[Double]]): Columns = {
      val values = Array.ofDim[Double](xs.head.length, xs.length)
      var i = 0
      for (x <- xs) {
        var f = 0
        while (f < values.length) { values(f)(i) = x(f); f += 1 }
        i += 1
      }
      new Columns(values)
    }

    private def sortedDistinct(col: Array[Double]): Array[Double] = {
      val sorted = col.clone()
      java.util.Arrays.sort(sorted)
      var m = 0
      var i = 0
      while (i < sorted.length) {
        if (m == 0 || java.lang.Double.compare(sorted(i), sorted(m - 1)) != 0) {
          sorted(m) = sorted(i); m += 1
        }
        i += 1
      }
      java.util.Arrays.copyOf(sorted, m)
    }
  }
}

sealed trait TreeNode extends Serializable
final case class Leaf(p: Double) extends TreeNode
final case class Split(feat: Int, thr: Double, left: TreeNode, right: TreeNode) extends TreeNode

final case class TreeModel(root: TreeNode) extends TrainedModel {
  override def proba(x: Array[Double]): Double = {
    @annotation.tailrec
    def walk(n: TreeNode): Double = n match {
      case Leaf(p)                => p
      case Split(f, t, l, r)      => walk(if (x(f) <= t) l else r)
    }
    walk(root)
  }
}
