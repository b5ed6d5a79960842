package repro.nn

import repro.ml.LinearModel.sigmoid

/** From-scratch convolutional binary classifier for the mouse-movement
  * heat maps: conv 3x3 (valid) -> ReLU -> 2x2 max-pool -> dense sigmoid.
  *
  * Stands in for the paper's fine-tuned ResNet (Section IV-B1): no
  * pre-trained weights exist in this offline environment, so a compact CNN
  * is trained directly on the down-sampled heat maps (see DESIGN.md). Its
  * output probability is the spatial "label coefficient" fused into MExI.
  * The net keeps only its parameters; the optimizer lives in `fit`.
  */
final class Cnn(val height: Int, val width: Int, val nFilters: Int, seed: Long)
    extends Serializable {
  require(height >= 4 && width >= 4, s"heat map too small: ${height}x$width")
  private val ch = height - 2      // conv output height (valid 3x3)
  private val cw = width - 2
  private val ph = ch / 2          // pooled dims (floor — trailing row/col dropped)
  private val pw = cw / 2
  private val denseIn = nFilters * ph * pw

  // Flat layout: filters[F*3*3] ++ fBias[F] ++ dense[denseIn] ++ dBias
  private val offFilt = 0
  private val offFB = offFilt + nFilters * 9
  private val offW = offFB + nFilters
  private val offB = offW + denseIn
  val nParams: Int = offB + 1
  val params: Array[Double] = {
    val rnd = new java.util.Random(seed)
    val p = new Array[Double](nParams)
    for (i <- 0 until offFB) p(i) = (rnd.nextDouble() * 2 - 1) / 3.0
    for (i <- offW until offB) p(i) = (rnd.nextDouble() * 2 - 1) / math.sqrt(denseIn.toDouble)
    p
  }

  import Cnn.Cache

  /** Output probability of `img`, and its activations. The pooling argmax,
    * which only backward reads, is kept when `backprop` is set.
    */
  private def forward(img: Array[Array[Double]], backprop: Boolean): (Double, Cache) = {
    require(img.length == height && img.head.length == width,
      s"image ${img.length}x${img.head.length} != ${height}x$width")
    val conv = Array.ofDim[Double](nFilters, ch, cw)
    for (f <- 0 until nFilters; r <- 0 until ch; c <- 0 until cw) {
      var z = params(offFB + f)
      var dr = 0
      while (dr < 3) {
        var dc = 0
        while (dc < 3) {
          z += params(offFilt + f * 9 + dr * 3 + dc) * img(r + dr)(c + dc)
          dc += 1
        }
        dr += 1
      }
      conv(f)(r)(c) = math.max(0.0, z)
    }
    val argmax = if (backprop) Array.ofDim[Int](nFilters, ph, pw) else null
    val pooled = new Array[Double](denseIn)
    for (f <- 0 until nFilters; r <- 0 until ph; c <- 0 until pw) {
      var best = Double.NegativeInfinity; var bestIdx = 0
      for (dr <- 0 until 2; dc <- 0 until 2) {
        val rr = 2 * r + dr; val cc = 2 * c + dc
        if (conv(f)(rr)(cc) > best) { best = conv(f)(rr)(cc); bestIdx = rr * cw + cc }
      }
      if (backprop) argmax(f)(r)(c) = bestIdx
      pooled(f * ph * pw + r * pw + c) = best
    }
    var logit = params(offB)
    var i = 0
    while (i < denseIn) { logit += params(offW + i) * pooled(i); i += 1 }
    (sigmoid(logit), Cache(img, conv, argmax, pooled))
  }

  def predict(img: Array[Array[Double]]): Double = forward(img, backprop = false)._1

  private def backward(cache: Cache, p: Double, y: Double, grad: Array[Double]): Unit = {
    val dLogit = p - y
    grad(offB) += dLogit
    for (f <- 0 until nFilters; r <- 0 until ph; c <- 0 until pw) {
      val flat = f * ph * pw + r * pw + c
      grad(offW + flat) += dLogit * cache.pooled(flat)
      val dPool = dLogit * params(offW + flat)
      val idx = cache.argmax(f)(r)(c)
      val rr = idx / cw; val cc = idx % cw
      if (cache.conv(f)(rr)(cc) > 0.0) { // ReLU gate
        grad(offFB + f) += dPool
        var dr = 0
        while (dr < 3) {
          var dc = 0
          while (dc < 3) {
            grad(offFilt + f * 9 + dr * 3 + dc) += dPool * cache.img(rr + dr)(cc + dc)
            dc += 1
          }
          dr += 1
        }
      }
    }
  }

  /** Analytic gradient of the cross-entropy loss on one example — exposed
    * for numerical gradient checking in tests.
    */
  def gradientOf(img: Array[Array[Double]], y: Boolean): Array[Double] = {
    val grad = new Array[Double](nParams)
    val (p, cache) = forward(img, backprop = true)
    backward(cache, p, if (y) 1.0 else 0.0, grad)
    grad
  }

  def loss(data: Seq[(Array[Array[Double]], Boolean)]): Double = {
    val eps = 1e-9
    data.map { case (img, y) =>
      val p = predict(img)
      if (y) -math.log(p + eps) else -math.log(1 - p + eps)
    }.sum / data.length
  }

  /** Train with [[Adam.fitMiniBatches]]; deterministic in `seed`. */
  def fit(data: Seq[(Array[Array[Double]], Boolean)], epochs: Int, seed: Long): Unit = {
    require(data.nonEmpty, "empty training data")
    val examples = data.toIndexedSeq
    Adam.fitMiniBatches(params, examples.length, epochs, seed) { (i, grad) =>
      val (img, y) = examples(i)
      val (p, cache) = forward(img, backprop = true)
      backward(cache, p, if (y) 1.0 else 0.0, grad)
    }
  }
}

object Cnn {
  private final case class Cache(
      img: Array[Array[Double]],
      conv: Array[Array[Array[Double]]],   // post-ReLU [F][ch][cw]
      argmax: Array[Array[Array[Int]]],    // pooled argmax (r*cw + c) [F][ph][pw]; null in predict
      pooled: Array[Double],               // flattened [denseIn]
  )
}
