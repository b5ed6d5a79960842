package repro.ml

import org.scalatest.funsuite.AnyFunSuite

/** Shared fixtures + behavior tests for the from-scratch classifier zoo. */
class ClassifierSpec extends AnyFunSuite {

  /** Linearly separable 2-D blobs. */
  private def blobs(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Boolean]) = {
    val rnd = new java.util.Random(seed)
    val data = (0 until n).map { _ =>
      val y = rnd.nextBoolean()
      val cx = if (y) 1.5 else -1.5
      (Array(cx + rnd.nextGaussian() * 0.5, rnd.nextGaussian() * 0.5), y)
    }
    (data.map(_._1), data.map(_._2))
  }

  private def accuracy(m: TrainedModel, xs: Seq[Array[Double]], ys: Seq[Boolean]): Double =
    xs.zip(ys).count { case (x, y) => m.predict(x) == y }.toDouble / xs.length

  for (clf <- Seq[Classifier](LogisticRegression, LinearSvm, RandomForest)) {
    test(s"${clf.name} separates linear blobs with >90% accuracy") {
      val (xs, ys) = blobs(200, 3)
      val m = clf.train(xs, ys, seed = 1)
      assert(accuracy(m, xs, ys) > 0.9)
    }

    test(s"${clf.name} probabilities stay within [0, 1]") {
      val (xs, ys) = blobs(60, 5)
      val m = clf.train(xs, ys, seed = 2)
      xs.foreach { x =>
        val p = m.proba(x)
        assert(p >= 0.0 && p <= 1.0)
      }
    }

    test(s"${clf.name} is deterministic in the seed") {
      val (xs, ys) = blobs(80, 7)
      val m1 = clf.train(xs, ys, seed = 9)
      val m2 = clf.train(xs, ys, seed = 9)
      xs.foreach(x => assert(m1.proba(x) === m2.proba(x)))
    }
  }

  test("single-class labels fall back to a constant model") {
    val xs = IndexedSeq(Array(1.0), Array(2.0))
    for (clf <- Seq[Classifier](LogisticRegression, LinearSvm, RandomForest)) {
      val m = clf.train(xs, IndexedSeq(true, true), seed = 1)
      assert(m.proba(Array(5.0)) === 1.0)
    }
  }

  test("logistic regression probability is monotone along the weight direction") {
    val (xs, ys) = blobs(200, 11)
    val m = LogisticRegression.train(xs, ys, seed = 4)
    assert(m.proba(Array(3.0, 0.0)) > m.proba(Array(0.0, 0.0)))
    assert(m.proba(Array(0.0, 0.0)) > m.proba(Array(-3.0, 0.0)))
  }

  test("random forest learns XOR-ish structure better than chance") {
    val rnd = new java.util.Random(21)
    val xs = IndexedSeq.fill(300)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val ys = xs.map(x => (x(0) > 0.5) != (x(1) > 0.5))
    val m = RandomForest.train(xs, ys, seed = 2)
    assert(accuracy(m, xs, ys) > 0.85)
  }

  test("forest probability is the mean of its trees") {
    val m = ForestModel(Vector(ConstantModel(0.2), ConstantModel(0.6)))
    assert(math.abs(m.proba(Array(0.0)) - 0.4) < 1e-12)
  }

  test("tree model walks splits correctly") {
    val tree = TreeModel(Split(0, 0.5, Leaf(0.1), Split(1, 0.5, Leaf(0.6), Leaf(0.9))))
    assert(tree.proba(Array(0.0, 0.0)) === 0.1)
    assert(tree.proba(Array(1.0, 0.0)) === 0.6)
    assert(tree.proba(Array(1.0, 1.0)) === 0.9)
  }
}
