package repro.nn

/** Adam optimizer (Kingma & Ba) with the paper's β1 = .9, β2 = .999 and
  * ε = 1e-8 (Section IV-B), at rate `lr`: the nets train at η = .01 in
  * [[Adam.fitMiniBatches]], logistic regression at .05. One instance owns
  * the moment buffers for a single flat parameter vector.
  */
final class Adam(dim: Int, lr: Double) {
  import Adam.{Beta1, Beta2, Eps}

  private val m = new Array[Double](dim)
  private val v = new Array[Double](dim)
  private var t = 0

  /** In-place update of `w` from `grad`; both must have length `dim`. */
  def step(w: Array[Double], grad: Array[Double]): Unit = {
    require(w.length == dim && grad.length == dim, "Adam dim mismatch")
    t += 1
    val bc1 = 1.0 - math.pow(Beta1, t)
    val bc2 = 1.0 - math.pow(Beta2, t)
    var i = 0
    while (i < dim) {
      m(i) = Beta1 * m(i) + (1 - Beta1) * grad(i)
      v(i) = Beta2 * v(i) + (1 - Beta2) * grad(i) * grad(i)
      w(i) -= lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + Eps)
      i += 1
    }
  }
}

object Adam {
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8

  // The nets' rate is 10× the paper's η = .001: our nets see far fewer steps.
  private val NetLr = 0.01
  private val Batch = 8
  private val Clip = 5.0

  /** Mini-batch Adam at rate `NetLr` on `params`, in place, deterministic
    * in `seed`: each epoch shuffles the `n` example indices (Fisher–Yates)
    * and cuts them into batches of `Batch`; `addGrad(i, grad)` adds
    * example i's gradient into `grad` in batch order, and the batch mean,
    * clipped to [-`Clip`, `Clip`], takes one Adam step. The optimizer
    * lives only in this call.
    */
  def fitMiniBatches(params: Array[Double], n: Int, epochs: Int, seed: Long)
                    (addGrad: (Int, Array[Double]) => Unit): Unit = {
    require(epochs >= 0, s"need epochs >= 0, got $epochs")
    val adam = new Adam(params.length, NetLr)
    val grad = new Array[Double](params.length)
    val rnd = new java.util.Random(seed)
    val idx = Array.range(0, n)
    for (_ <- 0 until epochs) {
      for (i <- n - 1 to 1 by -1) {
        val j = rnd.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t
      }
      var start = 0
      while (start < n) {
        val end = if (Batch >= n - start) n else start + Batch
        java.util.Arrays.fill(grad, 0.0)
        var e = start
        while (e < end) { addGrad(idx(e), grad); e += 1 }
        val size = end - start
        var j = 0
        while (j < grad.length) {
          grad(j) /= size
          if (grad(j) > Clip) grad(j) = Clip else if (grad(j) < -Clip) grad(j) = -Clip
          j += 1
        }
        adam.step(params, grad)
        start = end
      }
    }
  }
}
