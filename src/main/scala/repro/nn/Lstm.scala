package repro.nn

import repro.ml.LinearModel.sigmoid

/** From-scratch LSTM binary classifier over variable-length sequences of
  * feature vectors, trained with truncated-free full BPTT and mini-batch
  * Adam. The net keeps only its parameters; the optimizer lives in `fit`.
  *
  * Architecture mirrors the paper's sequential model (Section IV-B1) at a
  * scale that fits the simulated data: an LSTM layer whose final hidden
  * state feeds a sigmoid output head. The paper used 64 hidden units, a 0.5
  * dropout and a 100-node ReLU layer on real study data; our sequences are
  * 3-dimensional, so a compact head is sufficient (documented in DESIGN.md).
  *
  * Forward and backward passes run over flat [[Lstm.Buffers]]: `fit`
  * allocates one set for the longest training sequence and reuses it for
  * every example, so training allocates nothing per example or per step.
  * Forward stores tanh of the cell state, and backward reuses it. `predict`
  * allocates its own buffers, so concurrent predictions share nothing
  * mutable.
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

  import Lstm.Buffers

  /** Output probability of `xs`; leaves the activations in `b`. */
  private def forward(xs: IndexedSeq[Array[Double]], b: Buffers): Double = {
    val T = xs.length
    require(T > 0, "empty sequence")
    val p = params
    var t = 0
    while (t < T) {
      val x = xs(t)
      if (x.length != dIn) throw new IllegalArgumentException(s"input dim ${x.length} != $dIn")
      val at = t * dH   // step t's gates, and the state before step t
      val cur = at + dH // the state after step t
      var u = 0
      while (u < dH) {
        // gate pre-activations for unit u: rows u, dH+u, 2dH+u, 3dH+u
        var zi = p(offB + u); var zf = p(offB + dH + u)
        var zo = p(offB + 2 * dH + u); var zg = p(offB + 3 * dH + u)
        var k = 0
        while (k < dIn) {
          zi += p(offWx + u * dIn + k) * x(k)
          zf += p(offWx + (dH + u) * dIn + k) * x(k)
          zo += p(offWx + (2 * dH + u) * dIn + k) * x(k)
          zg += p(offWx + (3 * dH + u) * dIn + k) * x(k)
          k += 1
        }
        k = 0
        while (k < dH) {
          val hk = b.h(at + k)
          zi += p(offWh + u * dH + k) * hk
          zf += p(offWh + (dH + u) * dH + k) * hk
          zo += p(offWh + (2 * dH + u) * dH + k) * hk
          zg += p(offWh + (3 * dH + u) * dH + k) * hk
          k += 1
        }
        val iu = sigmoid(zi); val fu = sigmoid(zf); val ou = sigmoid(zo)
        val gu = math.tanh(zg)
        val cu = fu * b.c(at + u) + iu * gu
        val tcu = math.tanh(cu)
        b.i(at + u) = iu; b.f(at + u) = fu; b.o(at + u) = ou; b.g(at + u) = gu
        b.c(cur + u) = cu; b.tc(at + u) = tcu
        b.h(cur + u) = ou * tcu
        u += 1
      }
      t += 1
    }
    var logit = p(offBo)
    var u = 0
    while (u < dH) { logit += p(offWo + u) * b.h(T * dH + u); u += 1 }
    sigmoid(logit)
  }

  /** Predicted probability for one sequence. */
  def predict(xs: IndexedSeq[Array[Double]]): Double = forward(xs, new Buffers(xs.length, dH))

  /** One BPTT gradient for a (sequence, label) example, accumulated into
    * `grad`, from the activations `forward` left in `b`.
    */
  private def backward(xs: IndexedSeq[Array[Double]], b: Buffers, prob: Double, y: Double,
                       grad: Array[Double]): Unit = {
    val p = params
    val T = xs.length
    val dLogit = prob - y
    grad(offBo) += dLogit
    val dh = b.dh; val dc = b.dc; val dhNext = b.dhNext
    var u = 0
    while (u < dH) {
      grad(offWo + u) += dLogit * b.h(T * dH + u)
      dh(u) = dLogit * p(offWo + u)
      dc(u) = 0.0
      u += 1
    }
    var t = T - 1
    while (t >= 0) {
      val x = xs(t)
      val at = t * dH // step t's gates, and the state before step t
      java.util.Arrays.fill(dhNext, 0.0)
      u = 0
      while (u < dH) {
        val iu = b.i(at + u); val fu = b.f(at + u); val ou = b.o(at + u); val gu = b.g(at + u)
        val tc = b.tc(at + u)
        val dcU = dc(u) + dh(u) * ou * (1 - tc * tc)
        val doU = dh(u) * tc * ou * (1 - ou)
        val diU = dcU * gu * iu * (1 - iu)
        val dfU = dcU * b.c(at + u) * fu * (1 - fu)
        val dgU = dcU * iu * (1 - gu * gu)
        dc(u) = dcU * fu
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
          val hk = b.h(at + k)
          grad(offWh + u * dH + k) += diU * hk
          grad(offWh + (dH + u) * dH + k) += dfU * hk
          grad(offWh + (2 * dH + u) * dH + k) += doU * hk
          grad(offWh + (3 * dH + u) * dH + k) += dgU * hk
          dhNext(k) += diU * p(offWh + u * dH + k)
          dhNext(k) += dfU * p(offWh + (dH + u) * dH + k)
          dhNext(k) += doU * p(offWh + (2 * dH + u) * dH + k)
          dhNext(k) += dgU * p(offWh + (3 * dH + u) * dH + k)
          k += 1
        }
        u += 1
      }
      System.arraycopy(dhNext, 0, dh, 0, dH)
      t -= 1
    }
  }

  /** Analytic BPTT gradient of the cross-entropy loss on one example —
    * exposed for numerical gradient checking in tests.
    */
  def gradientOf(xs: IndexedSeq[Array[Double]], y: Boolean): Array[Double] = {
    val grad = new Array[Double](nParams)
    val b = new Buffers(xs.length, dH)
    val prob = forward(xs, b)
    backward(xs, b, prob, if (y) 1.0 else 0.0, grad)
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

  /** Train with [[Adam.fitMiniBatches]]; deterministic in `seed`. */
  def fit(data: Seq[(IndexedSeq[Array[Double]], Boolean)], epochs: Int = 8,
          batch: Int = 8, clip: Double = 5.0, seed: Long = 11L): Unit = {
    require(data.nonEmpty, "empty training data")
    val seqs = data.iterator.map(_._1).toArray
    val ys = data.iterator.map(d => if (d._2) 1.0 else 0.0).toArray
    val b = new Buffers(seqs.iterator.map(_.length).max, dH)
    Adam.fitMiniBatches(params, lr, seqs.length, epochs, batch, clip, seed) { (e, grad) =>
      backward(seqs(e), b, forward(seqs(e), b), ys(e), grad)
    }
  }
}

object Lstm {

  /** Activations of one forward pass over up to `maxT` steps of a net
    * with `dH` hidden units, and the backward pass's running gradients.
    * The gates `i`, `f`, `o`, `g` and `tc` = tanh(c) hold row t of step t
    * at offset t·dH. The cell and hidden states `c` and `h` hold the state
    * after step t at offset (t + 1)·dH, and row 0 is the zero initial
    * state, which nothing writes.
    */
  private final class Buffers(maxT: Int, dH: Int) {
    val i, f, o, g, tc = new Array[Double](maxT * dH)
    val c, h = new Array[Double]((maxT + 1) * dH)
    val dh, dc, dhNext = new Array[Double](dH)
  }
}
