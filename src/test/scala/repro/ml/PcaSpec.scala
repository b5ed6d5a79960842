package repro.ml

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class PcaSpec extends AnyFunSuite {

  test("jacobi recovers the diagonal of a diagonal matrix") {
    val a = Array(Array(3.0, 0.0), Array(0.0, 1.0))
    val ev = Pca.jacobiEigenvalues(a).sorted
    assert(math.abs(ev(0) - 1.0) < 1e-9 && math.abs(ev(1) - 3.0) < 1e-9)
  }

  test("jacobi solves a known symmetric 2x2") {
    // [[2,1],[1,2]] has eigenvalues 1 and 3.
    val ev = Pca.jacobiEigenvalues(Array(Array(2.0, 1.0), Array(1.0, 2.0))).sorted
    assert(math.abs(ev(0) - 1.0) < 1e-9 && math.abs(ev(1) - 3.0) < 1e-9)
  }

  test("rank-1 data puts all variance on the first component") {
    val rows = (1 to 10).map(i => Array(i.toDouble, 2.0 * i))
    val r = Pca.varianceRatios(rows, 2)
    assert(math.abs(r(0) - 1.0) < 1e-9)
    assert(r(1) < 1e-9)
  }

  test("isotropic data splits variance evenly") {
    val rows = Seq(
      Array(1.0, 0.0), Array(-1.0, 0.0), Array(0.0, 1.0), Array(0.0, -1.0))
    val r = Pca.varianceRatios(rows, 2)
    assert(math.abs(r(0) - 0.5) < 1e-9)
    assert(math.abs(r(1) - 0.5) < 1e-9)
  }

  test("variance ratios sum to at most 1 and are ordered") {
    val rnd = new java.util.Random(3)
    val rows = Seq.fill(30)(Array.fill(4)(rnd.nextGaussian()))
    val r = Pca.varianceRatios(rows, 4).toSeq
    assert(r.sum <= 1.0 + 1e-9)
    assert(r.zip(r.tail).forall { case (a, b) => a >= b - 1e-9 })
  }

  test("zero-variance data yields ratio 0") {
    val rows = Seq(Array(1.0, 1.0), Array(1.0, 1.0))
    assert(Pca.varianceRatios(rows, 2).toSeq === Seq(0.0, 0.0))
  }

  test("components beyond the dimension have ratio 0") {
    val rows = Seq(Array(1.0, 0.0), Array(0.0, 1.0), Array(2.0, 3.0))
    assert(Pca.varianceRatios(rows, 3)(2) === 0.0)
  }

  test("varianceRatios equals the k-th ratio of its own eigendecomposition bit for bit") {
    // The per-component form, one eigendecomposition per k.
    def varianceRatio(rows: Seq[Array[Double]], k: Int): Double = {
      val ev = Pca.eigenvalues(rows).map(v => math.max(0.0, v))
      val tot = ev.sum
      if (tot <= 1e-12 || k > ev.length) 0.0 else ev(k - 1) / tot
    }
    val values = Gen.frequency(3 -> Gen.choose(0.0, 1.0), 1 -> Gen.const(0.0))
    val matrices = for {
      n <- Gen.choose(2, 12)
      d <- Gen.choose(1, 8)
      rows <- Gen.listOfN(n, Gen.listOfN(d, values).map(_.toArray))
    } yield rows
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(7L))
    val res = Test.check(params, Prop.forAll(matrices) { rows =>
      val r = Pca.varianceRatios(rows, 2)
      Prop(r.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
        Seq(1, 2).map(k => java.lang.Double.doubleToRawLongBits(varianceRatio(rows, k))))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("eigenvalues of empty data are rejected") {
    intercept[IllegalArgumentException](Pca.eigenvalues(Seq.empty))
  }

  // --- the loop kernels against the collection-based reference ---

  private def bits(xs: Array[Double]): Seq[Long] =
    xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def check[A](gen: Gen[A], seed: Long)(prop: A => Boolean): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(seed))
    val res = Test.check(params, Prop.forAllNoShrink(gen)(a => Prop(prop(a))))
    assert(res.passed, Pretty.pretty(res))
  }

  /** Values with zeros and ties: a few fixed values, and any in [-1, 1]. */
  private val tiedValues: Gen[Double] = Gen.frequency(
    3 -> Gen.const(0.0), 2 -> Gen.oneOf(0.5, -0.5, 0.25, 1.0), 3 -> Gen.choose(-1.0, 1.0))

  test("jacobiEigenvalues equals the reference bit for bit on symmetric matrices " +
       "with zero and tied off-diagonal entries") {
    val symmetric = for {
      d <- Gen.choose(1, 12)
      upper <- Gen.listOfN(d * d, tiedValues)
    } yield Array.tabulate(d, d)((i, j) => upper(math.min(i, j) * d + math.max(i, j)))
    check(symmetric, 11L) { a =>
      val before = a.map(_.clone())
      val ok = bits(Pca.jacobiEigenvalues(a)) == bits(PcaSpec.Reference.jacobiEigenvalues(a))
      ok && a.indices.forall(i => bits(a(i)) == bits(before(i))) // the input is left as it is
    }
  }

  test("eigenvalues and varianceRatios equal the reference bit for bit") {
    val data = for {
      n <- Gen.choose(1, 40)
      d <- Gen.choose(1, 30)
      rows <- Gen.listOfN(n, Gen.listOfN(d, Gen.frequency(
        3 -> Gen.const(0.0), 1 -> Gen.oneOf(0.5, 1.0), 3 -> Gen.choose(0.0, 1.0))).map(_.toArray))
    } yield rows
    check(data, 13L) { rows =>
      bits(Pca.eigenvalues(rows)) == bits(PcaSpec.Reference.eigenvalues(rows)) &&
        bits(Pca.varianceRatios(rows, 2)) == bits(PcaSpec.Reference.varianceRatios(rows, 2))
    }
  }
}

object PcaSpec {

  /** The collection-based `Pca` these kernels replaced, kept as the
    * reference they must equal bit for bit.
    */
  object Reference {

    def eigenvalues(rows: Seq[Array[Double]]): Array[Double] = {
      require(rows.nonEmpty, "pca of empty data")
      val d = rows.head.length
      val n = rows.length
      val means = Array.tabulate(d)(j => rows.map(_(j)).sum / n)
      val cov = Array.ofDim[Double](d, d)
      for (r <- rows; i <- 0 until d; j <- i until d) {
        val v = (r(i) - means(i)) * (r(j) - means(j)) / math.max(1, n - 1)
        cov(i)(j) += v
        if (i != j) cov(j)(i) += v
      }
      val ev = jacobiEigenvalues(cov)
      java.util.Arrays.sort(ev)
      ev.reverse
    }

    def varianceRatios(rows: Seq[Array[Double]], k: Int): Array[Double] = {
      val ev = eigenvalues(rows).map(v => math.max(0.0, v))
      val tot = ev.sum
      Array.tabulate(k)(i => if (tot <= 1e-12 || i >= ev.length) 0.0 else ev(i) / tot)
    }

    def jacobiEigenvalues(a0: Array[Array[Double]]): Array[Double] = {
      val d = a0.length
      val a = a0.map(_.clone())
      var sweep = 0
      var off = offDiag(a)
      while (off > 1e-12 && sweep < 100) {
        for (p <- 0 until d - 1; q <- p + 1 until d if math.abs(a(p)(q)) > 1e-15) {
          val theta = (a(q)(q) - a(p)(p)) / (2.0 * a(p)(q))
          val t =
            if (theta == 0.0) 1.0
            else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
          val c = 1.0 / math.sqrt(t * t + 1.0)
          val s = t * c
          for (k <- 0 until d) {
            val akp = a(k)(p); val akq = a(k)(q)
            a(k)(p) = c * akp - s * akq
            a(k)(q) = s * akp + c * akq
          }
          for (k <- 0 until d) {
            val apk = a(p)(k); val aqk = a(q)(k)
            a(p)(k) = c * apk - s * aqk
            a(q)(k) = s * apk + c * aqk
          }
        }
        off = offDiag(a)
        sweep += 1
      }
      Array.tabulate(d)(i => a(i)(i))
    }

    private def offDiag(a: Array[Array[Double]]): Double = {
      var s = 0.0
      for (i <- a.indices; j <- a.indices if i != j) s += a(i)(j) * a(i)(j)
      s
    }
  }
}
