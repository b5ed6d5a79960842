package repro.core

import repro.SparkSpec
import repro.ml.{ModelSelection, TrainedModel}
import repro.synth.{MatcherSim, MatchingTask, TraitPrior}

class MExISpec extends SparkSpec {

  private lazy val study = MatcherSim.poStudy(nMatchers = 30, seed = 12L)
  private lazy val handle = new StudyHandle(spark, study)
  private val tinyCfg = NeuralFeatures.Config(
    lstmEpochs = 2, lstmHidden = 4, cnnEpochs = 2, cnnFilters = 2)

  // --- window construction ---

  test("windows slide with the configured stride, full windows only") {
    val hist = Map(1L -> (0 until 57).map(i =>
      Decision(1L, i, i, 0, 0.5, i.toDouble)).toVector)
    val w = MExI.windows(hist, Seq(1L), Seq(50))
    assert(w.map(_.start) === Vector(0, 3, 6))
    assert(w.forall(_.size === 50))
    assert(w.map(_.entityId).distinct.size === w.size)
  }

  test("matchers shorter than the window size contribute no window") {
    val hist = Map(1L -> (0 until 40).map(i =>
      Decision(1L, i, i, 0, 0.5, i.toDouble)).toVector)
    assert(MExI.windows(hist, Seq(1L), Seq(50)).isEmpty)
    assert(MExI.windows(hist, Seq(1L), Seq(37)).size === 2)
  }

  test("variant 70 generates windows for each size") {
    val hist = Map(1L -> (0 until 70).map(i =>
      Decision(1L, i, i, 0, 0.5, i.toDouble)).toVector)
    val w = MExI.windows(hist, Seq(1L), MExI.Variant70)
    assert(w.map(_.size).distinct.sorted === Vector(30, 40, 50, 60, 70))
  }

  test("entity ids never collide with matcher ids") {
    val w = MExI.windows(handle.historyByMatcher, handle.matcherIds, Seq(30))
    assert(w.forall(_.entityId >= 1000000L))
  }

  // --- window histories ---

  test("window histories re-sequence decisions and keep the window's slice") {
    val hist = Map(1L -> (0 until 20).map(i =>
      Decision(1L, i, i, 0, 0.1 * (i % 10), i * 2.0)).toVector)
    val spec = MExI.WindowSpec(5000000L, 1L, start = 5, size = 10)
    val decs = MExI.windowHistory(spec, hist)
    assert(decs.size === 10)
    assert(decs.map(_.seq) === (0 until 10))
    assert(decs.forall(_.matcherId === 5000000L))
    assert(decs.head.ts === 10.0 && decs.last.ts === 28.0)
    assert(decs.map(_.aIdx) === (5 until 15), "decisions 5..14 of the parent")
  }

  test("prepare rejects window ids that collide with matcher ids") {
    // Matcher ids from 1e6 up reach the window id base.
    val s = MatcherSim.study(MatchingTask.po(), MatchingTask.warmup(), TraitPrior.po,
      nMatchers = 6, idOffset = 1000000L, seed = 3L)
    val h = new StudyHandle(spark, s)
    val (train, test) = h.matcherIds.splitAt(4)
    val e = intercept[IllegalArgumentException](
      MExI.prepareVariants(h, train, h, test, Vector(MExI.Variant70), cfg = tinyCfg).head)
    assert(e.getMessage.contains("window and train ids overlap"))
  }

  test("prepare rejects train and test ids that overlap") {
    val ids = handle.matcherIds
    val e = intercept[IllegalArgumentException](
      MExI.prepareVariants(handle, ids.take(20), handle, ids.slice(18, 24),
        Vector(MExI.VariantNone), cfg = tinyCfg).head)
    assert(e.getMessage.contains("train and test ids overlap"))
  }

  // --- end-to-end prepare + fit ---

  private lazy val fold = {
    val ids = handle.matcherIds
    val (train, test) = ids.splitAt(24)
    MExI.prepareVariants(handle, train, handle, test, Vector(MExI.Variant50),
      cfg = tinyCfg, seed = 5L).head
  }

  test("prepare covers every train and test matcher with features") {
    assert(fold.testIds.size === 6)
    assert(fold.trainIds.size === 24, "classifier trains on full matchers only")
    val all = fold.trainIds ++ fold.testIds
    all.foreach { id =>
      val v = fold.features.vector(id)
      assert(v.length === fold.names.length)
      assert(v.forall(x => !x.isNaN && !x.isInfinity), s"bad features for $id")
    }
  }

  test("prepare emits all five feature groups") {
    val groups = fold.names.map(_.takeWhile(_ != '_')).toSet
    assert(groups === Set("lrsm", "beh", "mou", "seq", "spa"))
    assert(fold.names.count(_.startsWith("seq_")) === 4)
    assert(fold.names.count(_.startsWith("spa_")) === 16)
  }

  test("prepare labels every entity") {
    (fold.trainIds ++ fold.testIds).foreach { id =>
      val l = fold.trainLabels.getOrElse(id, fold.testLabels(id))
      assert(l.length === Labels.Count)
    }
  }

  test("prepareVariants equals one prepare per variant, bit for bit") {
    val (train, test) = handle.matcherIds.splitAt(24)
    val variants = Vector(MExI.Variant70, MExI.Variant50, MExI.VariantNone)
    val together = MExI.prepareVariants(handle, train, handle, test, variants,
      cfg = tinyCfg, seed = 5L)
    def bits(xs: Iterable[Double]) = xs.map(java.lang.Double.doubleToRawLongBits).toVector
    def cells(p: MExI.Prepared) = p.features.rows.toVector.sortBy(_._1)
      .map { case (id, v) => id -> bits(v) }
    assert(together.map(_.cnns).distinct.size === 1, "one set of CNNs")
    variants.zip(together).foreach { case (sizes, got) =>
      val want = MExI.prepareVariants(handle, train, handle, test, Vector(sizes),
        cfg = tinyCfg, seed = 5L).head
      assert(got.names === want.names, sizes)
      assert(cells(got) === cells(want), sizes)
      assert(got.nLstmTrainSeqs === want.nLstmTrainSeqs, sizes)
      assert(got.thresholds === want.thresholds)
      assert(got.trainLabels.view.mapValues(_.toSeq).toMap ===
        want.trainLabels.view.mapValues(_.toSeq).toMap)
      assert(got.testLabels.view.mapValues(_.toSeq).toMap ===
        want.testLabels.view.mapValues(_.toSeq).toMap)
      assert(got.cnns.keySet === want.cnns.keySet)
      got.cnns.foreach { case (k, net) => assert(bits(net.params) === bits(want.cnns(k).params), k) }
      assert(got.lstms.map(n => bits(n.params)).toSeq === want.lstms.map(n => bits(n.params)).toSeq,
        sizes)
    }
    assert(together.map(_.nLstmTrainSeqs).sorted.distinct.size === 3, "the variants differ")
  }

  test("sub-matcher augmentation adds LSTM training sequences only") {
    assert(fold.nLstmTrainSeqs > 24, "windows of 50 over ~55-decision matchers")
    assert(fold.trainIds.size === 24, "the classifier sees matchers only")
  }

  test("thresholds honor the paper's fixed deltas") {
    assert(fold.thresholds.dP === 0.5 && fold.thresholds.dR === 0.5)
  }

  test("fit returns in-range accuracies and predictions for all test ids") {
    val r = MExI.fit(fold, seed = 1L)
    assert(r.predictions.keySet === fold.testIds.toSet)
    r.accuracies.toSeq.foreach(a => assert(a >= 0.0 && a <= 1.0))
    assert(r.models.length === Labels.Count)
  }

  test("fit on a single feature group uses only its columns") {
    val r = MExI.fit(fold, groups = Set("lrsm"), seed = 1L)
    assert(r.names.forall(_.startsWith("lrsm_")))
    assert(r.predictions.size === fold.testIds.size)
  }

  test("evaluate matches hand-computed accuracies") {
    val truth = Map(1L -> Array(true, false, true, false),
      2L -> Array(true, true, false, false))
    val pred = Map(1L -> Array(true, false, true, false),
      2L -> Array(false, true, false, false))
    val a = MExI.evaluate(pred, truth)
    assert(a.aP === 0.5)
    assert(a.aR === 1.0 && a.aRes === 1.0 && a.aCal === 1.0)
    assert(math.abs(a.aML - (1.0 + 0.5) / 2) < 1e-12)
  }

  test("full-feature MExI fits its training population well above chance") {
    // A 6-matcher test fold is too noisy for a stable out-of-sample
    // assertion (the bench suites check that at n = 106); training-set
    // fit is the stable signal that learning happened.
    val r = MExI.fit(fold, seed = 2L)
    val table = fold.features.select(FeatureTable.AllGroups)
    val trainPred = fold.trainIds.map { id =>
      id -> r.models.map(_._2.predict(r.standardizer.transform(table.vector(id))))
    }.toMap
    val trainTruth = fold.trainIds.map(id => id -> fold.trainLabels(id)).toMap
    val acc = MExI.evaluate(trainPred, trainTruth)
    assert(acc.aML > 0.5, s"train aML ${acc.aML}")
    assert(acc.aP > 0.7, s"train aP ${acc.aP}")
  }

  test("fit equals a label-by-label selectAndTrain loop") {
    val seed = 3L
    val r = MExI.fit(fold, seed = seed)
    val table = fold.features.select(FeatureTable.AllGroups)
    val xs = fold.trainIds.map(id => r.standardizer.transform(table.vector(id)))
    val testXs = fold.testIds.map(id => r.standardizer.transform(table.vector(id)))
    val models = (0 until Labels.Count).map { l =>
      ModelSelection.selectAndTrain(xs, fold.trainIds.map(id => fold.trainLabels(id)(l)),
        seed = seed + l)
    }
    def bits(m: TrainedModel) =
      (xs ++ testXs).map(x => java.lang.Double.doubleToRawLongBits(m.proba(x)))
    for (l <- 0 until Labels.Count) {
      assert(r.models(l)._1 === models(l)._1, s"label $l")
      assert(bits(r.models(l)._2) === bits(models(l)._2), s"label $l")
    }
    fold.testIds.zip(testXs).foreach { case (id, x) =>
      assert(r.predictions(id).toSeq === models.map(_._2.predict(x)))
    }
  }

  // --- inference on a fitted fold ---

  private lazy val foldSeed = 9L
  private lazy val (foldTrain, foldTest) = Experiments.foldSplits(handle.matcherIds, 5, 4L).head
  private lazy val artifacts = Experiments.computeFold(spark, handle, handle, foldTrain, foldTest,
    tinyCfg, foldSeed)

  private def predictionBits(pred: Map[Long, Array[Boolean]]) =
    pred.toVector.sortBy(_._1).map { case (id, p) => id -> p.toSeq }

  private def rowBits(t: FeatureTable, ids: Seq[Long]) =
    ids.map(id => id -> t.vector(id).toSeq.map(java.lang.Double.doubleToRawLongBits))

  test("predict over features of the fold's test matchers reproduces fit's predictions") {
    val rows = MExI.features(artifacts.p50, handle, foldTest)
    assert(rows.names === artifacts.p50.names)
    assert(rowBits(rows, foldTest) === rowBits(artifacts.p50.features, foldTest))
    assert(predictionBits(MExI.predict(artifacts.fit50, rows)) ===
      predictionBits(artifacts.fit50.predictions))
  }

  test("earlyPredictions equals refitting MExI_50 with the truncated test matchers") {
    val truncated = new StudyHandle(spark, ExpertFilter.truncateStudy(study, k = 10))
    val early = Experiments.earlyPredictions(truncated, Vector(artifacts))
    val refit = MExI.prepareVariants(handle, foldTrain, truncated, foldTest,
      Vector(MExI.Variant50), tinyCfg, foldSeed).head
    assert(rowBits(MExI.features(artifacts.p50, truncated, foldTest), foldTest) ===
      rowBits(refit.features, foldTest))
    assert(early.keySet === foldTest.toSet)
    assert(predictionBits(early) === predictionBits(MExI.fit(refit, seed = foldSeed).predictions))
  }

  test("Phi_Seq carries the training consensus on the training handle, its own elsewhere") {
    val truncated = new StudyHandle(spark, ExpertFilter.truncateStudy(study, k = 10))
    def consensus(h: StudyHandle, ids: Vector[Long]) =
      MatrixOps.consensusOf(ids.map(h.historyByMatcher))
    for ((h, pi, n) <- Seq((handle, consensus(handle, foldTrain), foldTrain.size),
                           (truncated, consensus(truncated, foldTest), foldTest.size))) {
      val rows = MExI.features(artifacts.p50, h, foldTest)
      val cols = NeuralFeatures.seqNames.map(rows.names.indexOf)
      foldTest.foreach { id =>
        val want = NeuralFeatures.seqVector(artifacts.p50.lstms,
          SeqFeatures.of(h.historyByMatcher(id), pi, n))
        assert(cols.map(rows.vector(id)) === want.toSeq, id)
      }
    }
  }
}

