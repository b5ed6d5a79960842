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
}
