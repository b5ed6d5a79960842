package repro.ml

/** Per-label classifier selection and permutation feature importance.
  *
  * Mirrors the paper's protocol (Section IV-B2): "we trained a set of
  * state-of-the-art classifiers (e.g., SVM and Random Forest) ... and
  * selected the top performing classifier to be used for testing".
  * Selection is by internal k-fold cross-validation accuracy on the
  * training set, so the test fold is never touched.
  */
object ModelSelection {

  /** The classifier zoo evaluated for every label. Its order decides CV
    * ties: `maxBy` keeps the first best.
    */
  val defaultZoo: Seq[Classifier] =
    Seq(LogisticRegression, RandomForest, LinearSvm)

  /** Internal 3-fold CV accuracy of `clf` on (xs, ys). */
  def cvAccuracy(clf: Classifier, xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                 seed: Long): Double = {
    require(xs.nonEmpty && xs.length == ys.length, "bad CV data")
    val rnd = new java.util.Random(seed)
    val perm = Draws.distinctInts(rnd, xs.length, xs.length)
    val k = math.min(3, xs.length)
    var correct = 0
    for (f <- 0 until k) {
      val testIdx = perm.indices.filter(_ % k == f).map(perm)
      val trainIdx = perm.indices.filter(_ % k != f).map(perm)
      if (trainIdx.nonEmpty && testIdx.nonEmpty) {
        val m = clf.train(trainIdx.map(xs), trainIdx.map(ys), seed + f)
        correct += testIdx.count(i => m.predict(xs(i)) == ys(i))
      }
    }
    correct.toDouble / xs.length
  }

  /** Train every zoo member, keep the one with the best internal CV
    * accuracy, then refit it on the full training set.
    */
  def selectAndTrain(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                     seed: Long): (String, TrainedModel) = {
    ConstantModel.ifSingleClass(xs, ys).map("Constant" -> _).getOrElse {
      val best = defaultZoo.maxBy(c => cvAccuracy(c, xs, ys, seed))
      (best.name, best.train(xs, ys, seed))
    }
  }

  /** Permutation importance of each feature: mean accuracy drop when the
    * feature column is shuffled (over 5 shuffles). Stand-in for the
    * paper's SHAP analysis (Table IV) — both rank features by their
    * contribution to the trained model's predictions.
    */
  def permutationImportance(model: TrainedModel, xs: IndexedSeq[Array[Double]],
                            ys: IndexedSeq[Boolean], seed: Long): Array[Double] = {
    require(xs.nonEmpty, "importance of empty data")
    val repeats = 5
    val d = xs.head.length
    val base = xs.indices.count(i => model.predict(xs(i)) == ys(i)).toDouble / xs.length
    val rnd = new java.util.Random(seed)
    Array.tabulate(d) { j =>
      var drop = 0.0
      for (_ <- 0 until repeats) {
        val perm = Draws.distinctInts(rnd, xs.length, xs.length)
        val acc = xs.indices.count { i =>
          val x = xs(i).clone()
          x(j) = xs(perm(i))(j)
          model.predict(x) == ys(i)
        }.toDouble / xs.length
        drop += base - acc
      }
      drop / repeats
    }
  }
}
