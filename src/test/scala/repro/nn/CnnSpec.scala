package repro.nn

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class CnnSpec extends AnyFunSuite {
  import CnnSpec._

  private val H = 10
  private val W = 12

  private def blob(left: Boolean, rnd: java.util.Random): Array[Array[Double]] = {
    val img = Array.ofDim[Double](H, W)
    val cx = if (left) W / 4 else 3 * W / 4
    val cy = H / 2
    for (_ <- 0 until 25) {
      val x = math.max(0, math.min(W - 1, cx + rnd.nextGaussian() * 1.5)).toInt
      val y = math.max(0, math.min(H - 1, cy + rnd.nextGaussian() * 1.5)).toInt
      img(y)(x) = math.min(1.0, img(y)(x) + 0.34)
    }
    img
  }

  private def numericGrad(net: Cnn, img: Array[Array[Double]], y: Boolean,
                          j: Int, h: Double = 1e-5): Double = {
    val orig = net.params(j)
    def lossAt(v: Double): Double = {
      net.params(j) = v
      val p = net.predict(img)
      if (y) -math.log(p + 1e-12) else -math.log(1 - p + 1e-12)
    }
    val l1 = lossAt(orig + h); val l0 = lossAt(orig - h)
    net.params(j) = orig
    (l1 - l0) / (2 * h)
  }

  test("backprop gradient matches numerical gradient") {
    val net = new Cnn(H, W, nFilters = 2, seed = 1)
    val rnd = new java.util.Random(2)
    val img = Array.fill(H)(Array.fill(W)(rnd.nextDouble()))
    val grad = net.gradientOf(img, y = true)
    for (j <- 0 until net.nParams by math.max(1, net.nParams / 25)) {
      val ng = numericGrad(net, img, y = true, j)
      assert(math.abs(grad(j) - ng) < 1e-4, s"param $j: ${grad(j)} vs $ng")
    }
  }

  test("training reduces loss") {
    val rnd = new java.util.Random(3)
    val data = (0 until 40).map(i => (blob(i % 2 == 0, rnd), i % 2 == 0))
    val net = new Cnn(H, W, nFilters = 2, seed = 4)
    val before = net.loss(data)
    net.fit(data, epochs = 10, seed = 19)
    assert(net.loss(data) < before)
  }

  test("CNN separates left-blob from right-blob images") {
    val rnd = new java.util.Random(5)
    val train = (0 until 80).map(i => (blob(i % 2 == 0, rnd), i % 2 == 0))
    val net = new Cnn(H, W, nFilters = 3, seed = 6)
    net.fit(train, epochs = 20, seed = 19)
    val test = (0 until 40).map(i => (blob(i % 2 == 1, rnd), i % 2 == 1))
    val acc = test.count { case (img, y) => (net.predict(img) >= 0.5) == y }.toDouble / test.size
    assert(acc > 0.85, s"accuracy $acc")
  }

  test("prediction is deterministic and in [0, 1]") {
    val net = new Cnn(H, W, nFilters = 4, seed = 7)
    val img = Array.fill(H)(Array.fill(W)(0.3))
    val p = net.predict(img)
    assert(p >= 0.0 && p <= 1.0 && p === net.predict(img))
  }

  test("wrong image dimensions are rejected") {
    val net = new Cnn(H, W, nFilters = 4, seed = 13)
    intercept[IllegalArgumentException](net.predict(Array.fill(3)(Array.fill(3)(0.0))))
  }

  test("tiny grids are rejected at construction") {
    intercept[IllegalArgumentException](new Cnn(2, 2, nFilters = 4, seed = 13))
  }

  test("fit and predict equal the pre-refactor reference bit for bit") {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(40)
      .withInitialSeed(Seed(20211L))
    val res = Test.check(params, Prop.forAll(genCase) { c =>
      val net = new Cnn(c.height, c.width, c.nFilters, c.seed)
      val ref = new ReferenceCnn(c.height, c.width, c.nFilters, c.seed)
      net.fit(c.data, c.epochs, c.fitSeed)
      ref.fit(c.data, c.epochs, batch = 8, clip = 5.0, seed = c.fitSeed)
      val got = bits(net.params) ++ bits(c.data.map(d => net.predict(d._1)))
      val want = bits(ref.params) ++ bits(c.data.map(d => ref.predict(d._1)))
      Prop(got == want) :| s"first difference at ${got.zip(want).indexWhere(p => p._1 != p._2)}"
    })
    assert(res.passed, Pretty.pretty(res))
  }
}

object CnnSpec {

  private def bits(xs: Iterable[Double]): Vector[Long] =
    xs.iterator.map(java.lang.Double.doubleToRawLongBits).toVector

  private final case class Case(height: Int, width: Int, nFilters: Int, seed: Long,
                                fitSeed: Long, epochs: Int,
                                data: Vector[(Array[Array[Double]], Boolean)])

  /** Random grid shapes (odd ones drop a pooled row or column), and up to
    * 30 examples, so the last batch of 8 is often short.
    */
  private val genCase: Gen[Case] = for {
    height <- Gen.choose(4, 11)
    width <- Gen.choose(4, 11)
    nFilters <- Gen.choose(1, 3)
    n <- Gen.choose(1, 30)
    data <- Gen.listOfN(n, for {
      img <- Gen.listOfN(height, Gen.listOfN(width, Gen.choose(0.0, 1.0)).map(_.toArray))
      y <- Gen.oneOf(true, false)
    } yield (img.toArray, y))
    epochs <- Gen.choose(1, 4)
    seed <- Gen.long
    fitSeed <- Gen.long
  } yield Case(height, width, nFilters, seed, fitSeed, epochs, data.toVector)

  /** `Cnn` as it was before training moved into `Adam.fitMiniBatches`:
    * the net owns its optimizer and runs its own shuffle-and-batch loop.
    */
  private final class ReferenceCnn(
      val height: Int,
      val width: Int,
      val nFilters: Int = 4,
      seed: Long = 13L,
      lr: Double = 0.01,
  ) {
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
    private val adam = new Adam(nParams, lr)

    private def sigm(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

    import ReferenceCnn.Cache

    private def forward(img: Array[Array[Double]]): (Double, Cache) = {
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
      val argmax = Array.ofDim[Int](nFilters, ph, pw)
      val pooled = new Array[Double](denseIn)
      for (f <- 0 until nFilters; r <- 0 until ph; c <- 0 until pw) {
        var best = Double.NegativeInfinity; var bestIdx = 0
        for (dr <- 0 until 2; dc <- 0 until 2) {
          val rr = 2 * r + dr; val cc = 2 * c + dc
          if (conv(f)(rr)(cc) > best) { best = conv(f)(rr)(cc); bestIdx = rr * cw + cc }
        }
        argmax(f)(r)(c) = bestIdx
        pooled(f * ph * pw + r * pw + c) = best
      }
      var logit = params(offB)
      var i = 0
      while (i < denseIn) { logit += params(offW + i) * pooled(i); i += 1 }
      (sigm(logit), Cache(img, conv, argmax, pooled))
    }

    def predict(img: Array[Array[Double]]): Double = forward(img)._1

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

    def fit(data: Seq[(Array[Array[Double]], Boolean)], epochs: Int = 15,
            batch: Int = 8, clip: Double = 5.0, seed: Long = 19L): Unit = {
      require(data.nonEmpty, "empty training data")
      val rnd = new java.util.Random(seed)
      val idx = data.indices.toArray
      for (_ <- 0 until epochs) {
        for (i <- idx.length - 1 to 1 by -1) {
          val j = rnd.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t
        }
        idx.grouped(batch).foreach { group =>
          val grad = new Array[Double](nParams)
          group.foreach { i =>
            val (img, y) = data(i)
            val (p, cache) = forward(img)
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

  private object ReferenceCnn {
    private final case class Cache(
        img: Array[Array[Double]],
        conv: Array[Array[Array[Double]]],   // post-ReLU [F][ch][cw]
        argmax: Array[Array[Array[Int]]],    // pooled argmax (r*cw + c) [F][ph][pw]
        pooled: Array[Double],               // flattened [denseIn]
    )
  }
}
