package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class ModelSelectionSpec extends AnyFunSuite {

  private def separable(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Boolean]) = {
    val rnd = new java.util.Random(seed)
    val data = (0 until n).map { _ =>
      val y = rnd.nextBoolean()
      (Array((if (y) 1.0 else -1.0) + rnd.nextGaussian() * 0.3, rnd.nextGaussian()), y)
    }
    (data.map(_._1), data.map(_._2))
  }

  test("cvAccuracy of a good model on separable data is high") {
    val (xs, ys) = separable(120, 1)
    assert(ModelSelection.cvAccuracy(LogisticRegression, xs, ys, seed = 17) > 0.9)
  }

  test("cvAccuracy is bounded by [0, 1]") {
    val (xs, ys) = separable(40, 2)
    for (c <- ModelSelection.defaultZoo) {
      val a = ModelSelection.cvAccuracy(c, xs, ys, seed = 17)
      assert(a >= 0.0 && a <= 1.0)
    }
  }

  test("selectAndTrain returns an accurate model on separable data") {
    val (xs, ys) = separable(150, 3)
    val (name, m) = ModelSelection.selectAndTrain(xs, ys, seed = 17)
    assert(ModelSelection.defaultZoo.map(_.name).contains(name))
    val acc = xs.zip(ys).count { case (x, y) => m.predict(x) == y }.toDouble / xs.length
    assert(acc > 0.9)
  }

  test("the zoo is LogReg, RandomForest, LinearSVM, in that order") {
    assert(ModelSelection.defaultZoo.map(_.name) === Seq("LogReg", "RandomForest", "LinearSVM"))
  }

  test("selectAndTrain keeps the first zoo member among CV ties") {
    // Classes 3 apart on feature 0: every member classifies every CV fold perfectly.
    val rnd = new java.util.Random(4)
    val ys = IndexedSeq.tabulate(30)(_ % 2 == 0)
    val xs = ys.map(y => Array((if (y) 2.0 else -2.0) + rnd.nextDouble(), rnd.nextGaussian()))
    for (c <- ModelSelection.defaultZoo)
      assert(ModelSelection.cvAccuracy(c, xs, ys, seed = 17) === 1.0, c.name)
    assert(ModelSelection.selectAndTrain(xs, ys, seed = 17)._1 === "LogReg")
  }

  test("selectAndTrain on single-class labels yields a constant model") {
    val xs = IndexedSeq(Array(1.0), Array(2.0), Array(3.0))
    val (name, m) = ModelSelection.selectAndTrain(xs, IndexedSeq(false, false, false), seed = 17)
    assert(name === "Constant")
    assert(m.proba(Array(9.0)) === 0.0)
  }

  test("permutation importance ranks the informative feature first") {
    val rnd = new java.util.Random(7)
    val xs = IndexedSeq.fill(200)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val ys = xs.map(_(0) > 0.0)
    val (_, m) = ModelSelection.selectAndTrain(xs, ys, seed = 17)
    val imp = ModelSelection.permutationImportance(m, xs, ys, seed = 29)
    assert(imp(0) > imp(1))
    assert(imp(0) > 0.1)
  }

  test("permutation importance of pure noise is near zero") {
    val rnd = new java.util.Random(9)
    val xs = IndexedSeq.fill(100)(Array(rnd.nextGaussian()))
    val ys = IndexedSeq.fill(100)(rnd.nextBoolean())
    val m = ConstantModel(0.4)
    val imp = ModelSelection.permutationImportance(m, xs, ys, seed = 29)
    assert(math.abs(imp(0)) < 1e-12)
  }
}
