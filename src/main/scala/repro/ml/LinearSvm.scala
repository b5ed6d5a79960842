package repro.ml

/** Linear SVM trained with Pegasos-style stochastic sub-gradient descent
  * on the hinge loss. Fits a [[LinearModel]]: probabilities are a sigmoid
  * squash of the margin (enough for thresholding and model selection).
  */
final case class LinearSvm(
    epochs: Int = 200,
    lambda: Double = 1e-2,
) extends Classifier {
  override def name: String = "LinearSVM"

  override def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel = {
    require(xs.nonEmpty && xs.length == ys.length, "bad training data")
    if (ys.forall(identity) || !ys.exists(identity))
      return ConstantModel(ys.count(identity).toDouble / ys.length)
    val rnd = new java.util.Random(seed)
    val d = xs.head.length
    val w = new Array[Double](d + 1)
    val n = xs.length
    var t = 1
    for (_ <- 0 until epochs; _ <- 0 until n) {
      val i = rnd.nextInt(n)
      val x = xs(i)
      val y = if (ys(i)) 1.0 else -1.0
      val eta = 1.0 / (lambda * t)
      val margin = LinearModel.margin(w, x)
      var j = 0
      while (j < d) { w(j) *= (1.0 - eta * lambda); j += 1 }
      if (y * margin < 1.0) {
        j = 0
        while (j < d) { w(j) += eta * y * x(j); j += 1 }
        w(d) += eta * y * 0.1 // lightly-regularized bias
      }
      t += 1
    }
    LinearModel(w.clone())
  }
}
