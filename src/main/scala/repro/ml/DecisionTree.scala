package repro.ml

/** CART-style binary classification tree with Gini impurity.
  *
  * `featureSubset` (if set) draws that many candidate features uniformly at
  * each split — the randomization used by [[RandomForest]].
  *
  * A tree grows on a [[DecisionTree.Columns]] view of its training rows. A
  * node orders its rows for a candidate feature by a primitive sort of
  * `rank << 32 | position` keys, where `rank` is the value's dense rank in
  * `java.lang.Double.compare` order. This splits exactly as a sort by value
  * would, whatever order tied rows end up in: the scan only considers a
  * boundary between two rows whose values differ (`vHi > vLo`), and tied
  * rows share one rank, so they never straddle such a boundary. The left
  * side of it is then exactly the rows whose value is ≤ `vLo`, so its size,
  * its positive count, the gain and the threshold `(vLo + vHi) / 2` do not
  * depend on tie order, and the boundaries come in the same ascending order,
  * so the first best gain is the same one.
  */
final case class DecisionTree(
    maxDepth: Int = 6,
    minLeaf: Int = 2,
    featureSubset: Option[Int] = None,
) extends Classifier {
  override def name: String = "DecisionTree"

  override def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel = {
    require(xs.nonEmpty && xs.length == ys.length, "bad training data")
    grow(DecisionTree.Columns(xs), ys.toArray, Array.range(0, xs.length), seed)
  }

  /** Grows a tree on the view's rows `rows` (repeats allowed, as in a
    * bootstrap sample); `ys` holds the label of every view row.
    */
  private[ml] def grow(cols: DecisionTree.Columns, ys: Array[Boolean], rows: Array[Int],
                       seed: Long): TreeModel = {
    val rnd = new java.util.Random(seed)
    TreeModel(grow(cols, ys, rows, 0, rnd, new Array[Long](rows.length)))
  }

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) return 0.0
    val p = pos.toDouble / n
    2.0 * p * (1.0 - p)
  }

  /** `keys` is scratch space for the node's sort keys, shared down the tree. */
  private def grow(cols: DecisionTree.Columns, ys: Array[Boolean], idx: Array[Int],
                   depth: Int, rnd: java.util.Random, keys: Array[Long]): TreeNode = {
    val m = idx.length
    val pos = idx.count(ys(_))
    val prob = pos.toDouble / m
    if (depth >= maxDepth || m < 2 * minLeaf || pos == 0 || pos == m)
      return Leaf(prob)

    val d = cols.d
    val feats: Array[Int] = featureSubset match {
      case Some(k) => rnd.ints(0, d).distinct().limit(math.min(k, d).toLong).toArray
      case None    => Array.range(0, d)
    }

    var bestGain = 1e-12
    var bestFeat = -1
    var bestThr = 0.0
    val parentImp = gini(pos, m)
    var fi = 0
    while (fi < feats.length) {
      val f = feats(fi)
      val values = cols.values(f); val ranks = cols.ranks(f)
      var j = 0
      while (j < m) { keys(j) = ranks(idx(j)).toLong << 32 | j; j += 1 }
      java.util.Arrays.sort(keys, 0, m)
      // The low 32 bits of a key are the row's position in `idx`.
      var leftPos = 0
      var k = 0
      while (k < m - 1) {
        val row = idx(keys(k).toInt)
        if (ys(row)) leftPos += 1
        val vLo = values(row); val vHi = values(idx(keys(k + 1).toInt))
        if (vHi > vLo && k + 1 >= minLeaf && m - k - 1 >= minLeaf) {
          val nL = k + 1; val nR = m - nL
          val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / m
          val gain = parentImp - imp
          if (gain > bestGain) {
            bestGain = gain; bestFeat = f; bestThr = (vLo + vHi) / 2.0
          }
        }
        k += 1
      }
      fi += 1
    }
    if (bestFeat < 0) return Leaf(prob)
    val splitValues = cols.values(bestFeat)
    val (l, r) = idx.partition(splitValues(_) <= bestThr)
    if (l.isEmpty || r.isEmpty) return Leaf(prob)
    Split(bestFeat, bestThr, grow(cols, ys, l, depth + 1, rnd, keys),
      grow(cols, ys, r, depth + 1, rnd, keys))
  }
}

object DecisionTree {

  /** Column-major view of a training set, built once per forest: per
    * feature, the values of every row and each value's dense rank among the
    * column's distinct values in `java.lang.Double.compare` order (so
    * `-0.0` ranks below `0.0`, and every NaN shares the top rank).
    */
  private[ml] final class Columns private (val values: Array[Array[Double]]) {
    val d: Int = values.length
    val ranks: Array[Array[Int]] = values.map(Columns.denseRanks)
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

    private def denseRanks(col: Array[Double]): Array[Int] = {
      // Arrays.sort and binarySearch on double[] both order by Double.compare.
      val distinct = col.clone()
      java.util.Arrays.sort(distinct)
      var m = 0
      var i = 0
      while (i < distinct.length) {
        if (m == 0 || java.lang.Double.compare(distinct(i), distinct(m - 1)) != 0) {
          distinct(m) = distinct(i); m += 1
        }
        i += 1
      }
      col.map(java.util.Arrays.binarySearch(distinct, 0, m, _))
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
