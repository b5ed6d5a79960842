package repro.ml

import repro.ml.LinearModel.{margin, sigmoid}

/** L2-regularized logistic regression trained with full-batch Adam
  * (beta1 = .9, beta2 = .999 — the paper's optimizer settings — at rate
  * `lr`). Fits a [[LinearModel]].
  */
final case class LogisticRegression(
    epochs: Int = 400,
    lr: Double = 0.05,
    l2: Double = 1e-3,
) extends Classifier {
  override def name: String = "LogReg"

  override def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel =
    ConstantModel.ifSingleClass(xs, ys).getOrElse {
      val d = xs.head.length
      val w = new Array[Double](d + 1) // last slot is the bias
      val grad = new Array[Double](d + 1)
      val adam = new repro.nn.Adam(d + 1, lr)
      val n = xs.length
      for (_ <- 0 until epochs) {
        java.util.Arrays.fill(grad, 0.0)
        var i = 0
        while (i < n) {
          val x = xs(i)
          val p = sigmoid(margin(w, x))
          val err = p - (if (ys(i)) 1.0 else 0.0)
          var j = 0
          while (j < d) { grad(j) += err * x(j) / n; j += 1 }
          grad(d) += err / n
          i += 1
        }
        var j = 0
        while (j < d) { grad(j) += l2 * w(j); j += 1 }
        adam.step(w, grad)
      }
      LinearModel(w.clone())
    }
}
