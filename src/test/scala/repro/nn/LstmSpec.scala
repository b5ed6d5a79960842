package repro.nn

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class LstmSpec extends AnyFunSuite {
  import LstmSpec._

  private def numericGrad(net: Lstm, xs: IndexedSeq[Array[Double]], y: Boolean,
                          j: Int, h: Double = 1e-5): Double = {
    val orig = net.params(j)
    def lossAt(v: Double): Double = {
      net.params(j) = v
      val p = net.predict(xs)
      val l = if (y) -math.log(p + 1e-12) else -math.log(1 - p + 1e-12)
      l
    }
    val l1 = lossAt(orig + h); val l0 = lossAt(orig - h)
    net.params(j) = orig
    (l1 - l0) / (2 * h)
  }

  test("BPTT gradient matches numerical gradient") {
    val net = new Lstm(dIn = 2, dH = 3, seed = 1)
    val rnd = new java.util.Random(2)
    val xs = IndexedSeq.fill(5)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val grad = net.gradientOf(xs, y = true)
    // Check a spread of parameter indices across Wx, Wh, b, Wout, bout.
    val idxs = Seq(0, 7, net.nParams / 3, net.nParams / 2, net.nParams - 5, net.nParams - 1)
    for (j <- idxs) {
      val ng = numericGrad(net, xs, y = true, j)
      assert(math.abs(grad(j) - ng) < 1e-4,
        s"param $j: analytic ${grad(j)} vs numeric $ng")
    }
  }

  test("BPTT gradient matches numerics for the negative class too") {
    val net = new Lstm(dIn = 1, dH = 2, seed = 3)
    val xs = IndexedSeq(Array(0.7), Array(-0.2), Array(0.4))
    val grad = net.gradientOf(xs, y = false)
    for (j <- 0 until net.nParams by math.max(1, net.nParams / 10)) {
      val ng = numericGrad(net, xs, y = false, j)
      assert(math.abs(grad(j) - ng) < 1e-4, s"param $j")
    }
  }

  test("training reduces cross-entropy loss") {
    val rnd = new java.util.Random(5)
    val data = (0 until 60).map { _ =>
      val y = rnd.nextBoolean()
      val mean = if (y) 0.8 else 0.2
      val xs = IndexedSeq.fill(8)(Array(mean + rnd.nextGaussian() * 0.1))
      (xs, y)
    }
    val net = new Lstm(dIn = 1, dH = 4, seed = 6)
    val before = net.loss(data)
    net.fit(data, epochs = 12)
    assert(net.loss(data) < before)
  }

  test("LSTM learns to classify sequences by their mean") {
    val rnd = new java.util.Random(7)
    def mk(y: Boolean) = {
      val mean = if (y) 0.75 else 0.25
      (IndexedSeq.fill(10)(Array(mean + rnd.nextGaussian() * 0.1)), y)
    }
    val train = (0 until 80).map(i => mk(i % 2 == 0))
    val net = new Lstm(dIn = 1, dH = 6, seed = 8)
    net.fit(train, epochs = 20)
    val test = (0 until 40).map(i => mk(i % 2 == 1))
    val acc = test.count { case (xs, y) => (net.predict(xs) >= 0.5) == y }.toDouble / test.size
    assert(acc > 0.85, s"accuracy $acc")
  }

  test("LSTM can use temporal order, not just the mean") {
    // Label = whether the LAST element is high; means are identical.
    val rnd = new java.util.Random(9)
    def mk(y: Boolean) = {
      val base = IndexedSeq.fill(6)(Array(rnd.nextDouble()))
      val tail = if (y) Array(0.95) else Array(0.05)
      (base :+ tail, y)
    }
    val train = (0 until 100).map(i => mk(i % 2 == 0))
    val net = new Lstm(dIn = 1, dH = 6, seed = 10)
    net.fit(train, epochs = 25)
    val test = (0 until 40).map(i => mk(i % 2 == 1))
    val acc = test.count { case (xs, y) => (net.predict(xs) >= 0.5) == y }.toDouble / test.size
    assert(acc > 0.85, s"accuracy $acc")
  }

  test("prediction is deterministic and in [0, 1]") {
    val net = new Lstm(dIn = 2, dH = 3, seed = 11)
    val xs = IndexedSeq(Array(0.1, 0.2), Array(0.3, 0.4))
    val p = net.predict(xs)
    assert(p >= 0.0 && p <= 1.0)
    assert(p === net.predict(xs))
  }

  test("empty sequences are rejected") {
    val net = new Lstm(dIn = 1)
    intercept[IllegalArgumentException](net.predict(IndexedSeq.empty))
  }

  test("fit rejects an empty batch") {
    val net = new Lstm(dIn = 1)
    intercept[IllegalArgumentException](net.fit(Seq((IndexedSeq(Array(0.5)), true)), batch = 0))
  }

  test("fit, predict and gradientOf equal the per-step-allocating reference bit for bit") {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(150)
      .withInitialSeed(Seed(20210L))
    val res = Test.check(params, Prop.forAll(genCase) { c =>
      val net = new Lstm(c.dIn, c.dH, c.seed)
      val ref = new ReferenceLstm(c.dIn, c.dH, c.seed)
      val gotGrad = net.gradientOf(c.data.head._1, c.data.head._2)
      val wantGrad = ref.gradientOf(c.data.head._1, c.data.head._2)
      net.fit(c.data, c.epochs, c.batch, seed = c.fitSeed)
      ref.fit(c.data, c.epochs, c.batch, seed = c.fitSeed)
      val got = bits(gotGrad) ++ bits(net.params) ++ bits(c.data.map(d => net.predict(d._1)))
      val want = bits(wantGrad) ++ bits(ref.params) ++ bits(c.data.map(d => ref.predict(d._1)))
      Prop(got == want) :| s"first difference at ${got.zip(want).indexWhere(p => p._1 != p._2)}"
    })
    assert(res.passed, Pretty.pretty(res))
  }
}

object LstmSpec {

  private def bits(xs: Iterable[Double]): Vector[Long] =
    xs.iterator.map(java.lang.Double.doubleToRawLongBits).toVector

  private final case class Case(dIn: Int, dH: Int, seed: Long, fitSeed: Long, epochs: Int,
                                batch: Int, data: Vector[(IndexedSeq[Array[Double]], Boolean)])

  /** Random shapes, sequences of 1–9 steps (T = 1 among them), and batch
    * sizes that often do not divide the number of examples.
    */
  private val genCase: Gen[Case] = for {
    dIn <- Gen.choose(1, 4)
    dH <- Gen.choose(1, 6)
    n <- Gen.choose(1, 12)
    data <- Gen.listOfN(n, for {
      t <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 9))
      xs <- Gen.listOfN(t, Gen.listOfN(dIn, Gen.choose(-2.0, 2.0)).map(_.toArray))
      y <- Gen.oneOf(true, false)
    } yield (xs.toIndexedSeq, y))
    batch <- Gen.choose(1, n + 2)
    epochs <- Gen.choose(1, 3)
    seed <- Gen.long
    fitSeed <- Gen.long
  } yield Case(dIn, dH, seed, fitSeed, epochs, batch, data.toVector)

  /** `Lstm` as it was before its flat per-fit buffers: per-call activation
    * arrays, per-step gradient arrays, and tanh(c) recomputed in backward.
    */
  private final class ReferenceLstm(
      val dIn: Int,
      val dH: Int = 16,
      seed: Long = 7L,
      lr: Double = 0.01, // above the paper's 1e-3: our nets see far fewer steps
  ) {
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

    import ReferenceLstm.Cache

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

  private object ReferenceLstm {
    private final case class Cache(
        xs: IndexedSeq[Array[Double]],
        i: Array[Array[Double]], f: Array[Array[Double]],
        o: Array[Array[Double]], g: Array[Array[Double]],
        c: Array[Array[Double]], h: Array[Array[Double]],
    )
  }
}
