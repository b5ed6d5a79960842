package repro.nn

/** Adam optimizer (Kingma & Ba) with the paper's settings:
  * eta = 0.001, beta1 = 0.9, beta2 = 0.999 (Section IV-B).
  * One instance owns the moment buffers for a single flat parameter vector.
  */
final class Adam(
    dim: Int,
    lr: Double = 0.001,
    beta1: Double = 0.9,
    beta2: Double = 0.999,
    eps: Double = 1e-8,
) {
  private val m = new Array[Double](dim)
  private val v = new Array[Double](dim)
  private var t = 0

  /** In-place update of `w` from `grad`; both must have length `dim`. */
  def step(w: Array[Double], grad: Array[Double]): Unit = {
    require(w.length == dim && grad.length == dim, "Adam dim mismatch")
    t += 1
    val bc1 = 1.0 - math.pow(beta1, t)
    val bc2 = 1.0 - math.pow(beta2, t)
    var i = 0
    while (i < dim) {
      m(i) = beta1 * m(i) + (1 - beta1) * grad(i)
      v(i) = beta2 * v(i) + (1 - beta2) * grad(i) * grad(i)
      w(i) -= lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + eps)
      i += 1
    }
  }
}

object Adam {

  /** Mini-batch Adam at rate `lr` on `params`, in place, deterministic in
    * `seed`: each epoch shuffles the `n` example indices (Fisher–Yates) and
    * cuts them into batches of `batch`; `addGrad(i, grad)` adds example i's
    * gradient into `grad` in batch order, and the batch mean, clipped to
    * [-clip, clip], takes one Adam step. The optimizer lives only in this call.
    */
  def fitMiniBatches(params: Array[Double], lr: Double, n: Int, epochs: Int, batch: Int,
                     clip: Double, seed: Long)(addGrad: (Int, Array[Double]) => Unit): Unit = {
    require(batch >= 1 && epochs >= 0, s"need batch >= 1 and epochs >= 0, got $batch and $epochs")
    val adam = new Adam(params.length, lr)
    val grad = new Array[Double](params.length)
    val rnd = new java.util.Random(seed)
    val idx = Array.range(0, n)
    for (_ <- 0 until epochs) {
      for (i <- n - 1 to 1 by -1) {
        val j = rnd.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t
      }
      var start = 0
      while (start < n) {
        val end = if (batch >= n - start) n else start + batch
        java.util.Arrays.fill(grad, 0.0)
        var e = start
        while (e < end) { addGrad(idx(e), grad); e += 1 }
        val size = end - start
        var j = 0
        while (j < grad.length) {
          grad(j) /= size
          if (grad(j) > clip) grad(j) = clip else if (grad(j) < -clip) grad(j) = -clip
          j += 1
        }
        adam.step(params, grad)
        start = end
      }
    }
  }
}
