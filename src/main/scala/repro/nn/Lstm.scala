package repro.nn

/** From-scratch LSTM binary classifier over variable-length sequences of
  * feature vectors, trained with truncated-free full BPTT and Adam.
  *
  * Architecture mirrors the paper's sequential model (Section IV-B1) at a
  * scale that fits the simulated data: an LSTM layer whose final hidden
  * state feeds a sigmoid output head. The paper used 64 hidden units, a 0.5
  * dropout and a 100-node ReLU layer on real study data; our sequences are
  * 3-dimensional, so a compact head is sufficient (documented in DESIGN.md).
  *
  * The trained output probability is the "label coefficient" fused into the
  * MExI feature vector (late fusion).
  */
final class Lstm(
    val dIn: Int,
    val dH: Int = 16,
    seed: Long = 7L,
    lr: Double = 0.01, // above the paper's 1e-3: our nets see far fewer steps
) extends Serializable {
  // Flat parameter layout:
  //   Wx[4H x dIn] ++ Wh[4H x dH] ++ b[4H] ++ Wout[dH] ++ bout
  private val nGate = 4 * dH
  private val offWx = 0
  private val offWh = offWx + nGate * dIn
  private val offB = offWh + nGate * dH
  private val offWo = offB + nGate
  private val offBo = offWo + dH
  val nParams: Int = offBo + 1
  val params: Array[Double] = {
    val rnd = new java.util.Random(seed)
    val scale = 1.0 / math.sqrt(math.max(1, dIn + dH).toDouble)
    val p = Array.fill(nParams)((rnd.nextDouble() * 2 - 1) * scale)
    // Forget-gate bias starts at 1.0 — the standard trick for gradient flow.
    for (g <- dH until 2 * dH) p(offB + g) = 1.0
    p
  }
  private val adam = new Adam(nParams, lr)

  private def sigm(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  import Lstm.Cache

  private def forward(xs: IndexedSeq[Array[Double]]): (Double, Cache) = {
    val T = xs.length
    require(T > 0, "empty sequence")
    val iA = Array.ofDim[Double](T, dH); val fA = Array.ofDim[Double](T, dH)
    val oA = Array.ofDim[Double](T, dH); val gA = Array.ofDim[Double](T, dH)
    val cA = Array.ofDim[Double](T, dH); val hA = Array.ofDim[Double](T, dH)
    var hPrev = new Array[Double](dH)
    var cPrev = new Array[Double](dH)
    for (t <- 0 until T) {
      val x = xs(t)
      require(x.length == dIn, s"input dim ${x.length} != $dIn")
      for (u <- 0 until dH) {
        // gate pre-activations for unit u: rows u, dH+u, 2dH+u, 3dH+u
        var zi = params(offB + u); var zf = params(offB + dH + u)
        var zo = params(offB + 2 * dH + u); var zg = params(offB + 3 * dH + u)
        var k = 0
        while (k < dIn) {
          zi += params(offWx + u * dIn + k) * x(k)
          zf += params(offWx + (dH + u) * dIn + k) * x(k)
          zo += params(offWx + (2 * dH + u) * dIn + k) * x(k)
          zg += params(offWx + (3 * dH + u) * dIn + k) * x(k)
          k += 1
        }
        k = 0
        while (k < dH) {
          zi += params(offWh + u * dH + k) * hPrev(k)
          zf += params(offWh + (dH + u) * dH + k) * hPrev(k)
          zo += params(offWh + (2 * dH + u) * dH + k) * hPrev(k)
          zg += params(offWh + (3 * dH + u) * dH + k) * hPrev(k)
          k += 1
        }
        iA(t)(u) = sigm(zi); fA(t)(u) = sigm(zf); oA(t)(u) = sigm(zo)
        gA(t)(u) = math.tanh(zg)
        cA(t)(u) = fA(t)(u) * cPrev(u) + iA(t)(u) * gA(t)(u)
        hA(t)(u) = oA(t)(u) * math.tanh(cA(t)(u))
      }
      hPrev = hA(t); cPrev = cA(t)
    }
    var logit = params(offBo)
    for (u <- 0 until dH) logit += params(offWo + u) * hA(T - 1)(u)
    (sigm(logit), Cache(xs, iA, fA, oA, gA, cA, hA))
  }

  /** Predicted probability for one sequence. */
  def predict(xs: IndexedSeq[Array[Double]]): Double = forward(xs)._1

  /** One BPTT gradient for a (sequence, label) example, accumulated into `grad`. */
  private def backward(cache: Cache, p: Double, y: Double, grad: Array[Double]): Unit = {
    val T = cache.xs.length
    val dLogit = p - y
    grad(offBo) += dLogit
    val dh = new Array[Double](dH)
    val dc = new Array[Double](dH)
    for (u <- 0 until dH) {
      grad(offWo + u) += dLogit * cache.h(T - 1)(u)
      dh(u) = dLogit * params(offWo + u)
    }
    for (t <- T - 1 to 0 by -1) {
      val x = cache.xs(t)
      val cPrev = if (t == 0) new Array[Double](dH) else cache.c(t - 1)
      val hPrev = if (t == 0) new Array[Double](dH) else cache.h(t - 1)
      val dhNext = new Array[Double](dH)
      for (u <- 0 until dH) {
        val tc = math.tanh(cache.c(t)(u))
        val dcU = dc(u) + dh(u) * cache.o(t)(u) * (1 - tc * tc)
        val doU = dh(u) * tc * cache.o(t)(u) * (1 - cache.o(t)(u))
        val diU = dcU * cache.g(t)(u) * cache.i(t)(u) * (1 - cache.i(t)(u))
        val dfU = dcU * cPrev(u) * cache.f(t)(u) * (1 - cache.f(t)(u))
        val dgU = dcU * cache.i(t)(u) * (1 - cache.g(t)(u) * cache.g(t)(u))
        dc(u) = dcU * cache.f(t)(u)
        grad(offB + u) += diU; grad(offB + dH + u) += dfU
        grad(offB + 2 * dH + u) += doU; grad(offB + 3 * dH + u) += dgU
        var k = 0
        while (k < dIn) {
          grad(offWx + u * dIn + k) += diU * x(k)
          grad(offWx + (dH + u) * dIn + k) += dfU * x(k)
          grad(offWx + (2 * dH + u) * dIn + k) += doU * x(k)
          grad(offWx + (3 * dH + u) * dIn + k) += dgU * x(k)
          k += 1
        }
        k = 0
        while (k < dH) {
          grad(offWh + u * dH + k) += diU * hPrev(k)
          grad(offWh + (dH + u) * dH + k) += dfU * hPrev(k)
          grad(offWh + (2 * dH + u) * dH + k) += doU * hPrev(k)
          grad(offWh + (3 * dH + u) * dH + k) += dgU * hPrev(k)
          dhNext(k) += diU * params(offWh + u * dH + k)
          dhNext(k) += dfU * params(offWh + (dH + u) * dH + k)
          dhNext(k) += doU * params(offWh + (2 * dH + u) * dH + k)
          dhNext(k) += dgU * params(offWh + (3 * dH + u) * dH + k)
          k += 1
        }
      }
      System.arraycopy(dhNext, 0, dh, 0, dH)
    }
  }

  /** Analytic BPTT gradient of the cross-entropy loss on one example —
    * exposed for numerical gradient checking in tests.
    */
  def gradientOf(xs: IndexedSeq[Array[Double]], y: Boolean): Array[Double] = {
    val grad = new Array[Double](nParams)
    val (p, cache) = forward(xs)
    backward(cache, p, if (y) 1.0 else 0.0, grad)
    grad
  }

  /** Cross-entropy loss on a dataset — exposed so tests can check descent. */
  def loss(data: Seq[(IndexedSeq[Array[Double]], Boolean)]): Double = {
    val eps = 1e-9
    val ls = data.map { case (xs, y) =>
      val p = predict(xs)
      if (y) -math.log(p + eps) else -math.log(1 - p + eps)
    }
    ls.sum / data.length
  }

  /** Train with mini-batch Adam; deterministic in the constructor seed. */
  def fit(data: Seq[(IndexedSeq[Array[Double]], Boolean)], epochs: Int = 8,
          batch: Int = 8, clip: Double = 5.0, seed: Long = 11L): Unit = {
    require(data.nonEmpty, "empty training data")
    val rnd = new java.util.Random(seed)
    val idx = data.indices.toArray
    for (_ <- 0 until epochs) {
      // Fisher–Yates shuffle for stable, seed-driven epochs.
      for (i <- idx.length - 1 to 1 by -1) {
        val j = rnd.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t
      }
      idx.grouped(batch).foreach { group =>
        val grad = new Array[Double](nParams)
        group.foreach { i =>
          val (xs, y) = data(i)
          val (p, cache) = forward(xs)
          backward(cache, p, if (y) 1.0 else 0.0, grad)
        }
        var j = 0
        while (j < nParams) {
          grad(j) /= group.length
          if (grad(j) > clip) grad(j) = clip else if (grad(j) < -clip) grad(j) = -clip
          j += 1
        }
        adam.step(params, grad)
      }
    }
  }
}

object Lstm {
  private final case class Cache(
      xs: IndexedSeq[Array[Double]],
      i: Array[Array[Double]], f: Array[Array[Double]],
      o: Array[Array[Double]], g: Array[Array[Double]],
      c: Array[Array[Double]], h: Array[Array[Double]],
  )
}
