package repro.ml

import repro.ml.LinearModel.{margin, sigmoid}

/** L2-regularized logistic regression trained with full-batch Adam
  * (beta1 = .9, beta2 = .999 — the paper's optimizer settings — at rate
  * .05). Fits a [[LinearModel]].
  */
object LogisticRegression extends Classifier {
  private val Epochs = 400
  private val Lr = 0.05
  private val L2 = 1e-3

  override def name: String = "LogReg"

  override def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel =
    ConstantModel.ifSingleClass(xs, ys).getOrElse {
      val d = xs.head.length
      val w = new Array[Double](d + 1) // last slot is the bias
      val grad = new Array[Double](d + 1)
      val adam = new repro.nn.Adam(d + 1, Lr)
      val n = xs.length
      for (_ <- 0 until Epochs) {
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
        while (j < d) { grad(j) += L2 * w(j); j += 1 }
        adam.step(w, grad)
      }
      LinearModel(w.clone())
    }
}
