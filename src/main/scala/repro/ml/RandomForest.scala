package repro.ml

/** Random forest: bagged CART trees with sqrt(d) feature subsampling.
  * The probability is the mean of per-tree leaf probabilities.
  *
  * The forest ranks its columns once ([[DecisionTree.Columns]]) and every
  * tree grows on its bootstrap's row indices into that view, so no tree
  * copies rows or sorts values. The trees are node for node those of
  * a per-node sort by value; [[DecisionTree]] gives the argument.
  */
object RandomForest extends Classifier {
  private val Trees = 60

  override def name: String = "RandomForest"

  override def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel =
    ConstantModel.ifSingleClass(xs, ys).getOrElse {
      val n = xs.length
      val cols = DecisionTree.Columns(xs)
      val labels = ys.toArray
      val k = math.max(1, math.round(math.sqrt(cols.d.toDouble)).toInt)
      val rnd = new java.util.Random(seed)
      val trees = (0 until Trees).map { _ =>
        val bootRnd = new java.util.Random(rnd.nextLong())
        val idx = Array.fill(n)(bootRnd.nextInt(n))
        DecisionTree.grow(cols, labels, idx, k, bootRnd.nextLong())
      }
      ForestModel(trees.toVector)
    }
}

final case class ForestModel(trees: Vector[TrainedModel]) extends TrainedModel {
  /** Sums in tree order from the first tree's value, the same fold as
    * `trees.map(_.proba(x)).sum`, without building a vector per call.
    */
  override def proba(x: Array[Double]): Double = {
    var s = if (trees.isEmpty) 0.0 else trees(0).proba(x)
    var t = 1
    while (t < trees.length) { s += trees(t).proba(x); t += 1 }
    s / trees.length
  }
}
