package repro.ml

/** A fitted binary classifier: maps a feature vector to P(label = true). */
trait TrainedModel extends Serializable {
  def proba(x: Array[Double]): Double
  def predict(x: Array[Double]): Boolean = proba(x) >= 0.5
}

/** A trainable binary classifier. Training is deterministic in `seed`. */
trait Classifier extends Serializable {
  def name: String
  def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TrainedModel
}

/** Constant-probability model — the fallback when training labels are
  * single-class (a degenerate fold); also useful in tests.
  */
final case class ConstantModel(p: Double) extends TrainedModel {
  override def proba(x: Array[Double]): Double = p
}

/** P(label = true) = sigmoid(w·x + b), with the bias b as w's last entry:
  * what [[LogisticRegression]] and [[LinearSvm]] fit.
  */
final case class LinearModel(w: Array[Double]) extends TrainedModel {
  override def proba(x: Array[Double]): Double = {
    require(x.length == w.length - 1, "dim mismatch")
    LinearModel.sigmoid(LinearModel.margin(w, x))
  }
}

object LinearModel {

  /** w·x + b, summed from the bias in column order. */
  def margin(w: Array[Double], x: Array[Double]): Double = {
    var s = w(x.length); var j = 0
    while (j < x.length) { s += w(j) * x(j); j += 1 }
    s
  }

  def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))
}
