package repro.core

import repro.ml.{Metrics, ModelSelection, Standardizer, TrainedModel}
import repro.nn.Cnn

/** The MExI learning framework (Section III): feature extraction with
  * sub-matcher augmentation, late-fusion neural features, per-label
  * classifier selection, and the accuracy evaluation of Section IV-B3.
  */
object MExI {

  /** Window-size recipes of the paper's three variants (Section IV-B1):
    * MExI_0 (no augmentation), MExI_50 (windows of 50 decisions) and
    * MExI_70 (windows of 30, 40, ..., 70 decisions).
    */
  val VariantNone: Seq[Int] = Seq.empty
  val Variant50: Seq[Int] = Seq(50)
  val Variant70: Seq[Int] = Seq(30, 40, 50, 60, 70)

  /** One sub-matcher: `size` consecutive decisions of `matcherId` starting
    * at decision index `start`, exposed under the synthetic `entityId`.
    */
  final case class WindowSpec(entityId: Long, matcherId: Long, start: Int, size: Int)

  /** Accuracy row of tables II/III. */
  final case class Accuracies(aP: Double, aR: Double, aRes: Double,
                              aCal: Double, aML: Double) {
    def toSeq: Seq[Double] = Seq(aP, aR, aRes, aCal, aML)
  }

  /** Everything `fit` needs: feature rows with labels for the training
    * and test matchers, plus the trained CNNs so callers can share them
    * across variants of the same fold. `nLstmTrainSeqs` records how many
    * sequences (matchers + sub-matchers) the LSTMs saw — the knob the
    * augmentation variants turn.
    */
  final case class Prepared(
      names: Vector[String],
      trainIds: Vector[Long],
      testIds: Vector[Long],
      features: FeatureTable,
      trainLabels: Map[Long, Array[Boolean]],
      testLabels: Map[Long, Array[Boolean]],
      thresholds: Thresholds,
      cnns: Map[(String, Int), Cnn],
      nLstmTrainSeqs: Int,
  )

  /** A fitted MExI: per-label (classifier name, model) over standardized
    * features, with its test predictions and accuracies.
    */
  final case class FitResult(
      predictions: Map[Long, Array[Boolean]],
      accuracies: Accuracies,
      models: Array[(String, TrainedModel)],
      standardizer: Standardizer,
      names: Vector[String],
  )

  /** Sub-matcher windows for the given sizes (stride = 3 decisions, full
    * windows only). Matchers shorter than a size contribute no window of
    * that size — they still participate as full matchers.
    */
  val WindowStride = 3

  def windows(histories: Map[Long, Vector[Decision]], matcherIds: Seq[Long],
              sizes: Seq[Int], idBase: Long = 1000000L): Vector[WindowSpec] = {
    val out = Vector.newBuilder[WindowSpec]
    var next = idBase
    for (m <- matcherIds; size <- sizes) {
      val n = histories.get(m).map(_.length).getOrElse(0)
      var start = 0
      while (start + size <= n) {
        out += WindowSpec(next, m, start, size)
        next += 1
        start += WindowStride
      }
    }
    out.result()
  }

  /** The history of one sub-matcher under its entity id. Decision `seq`
    * restarts at 0 inside the window; timestamps stay absolute (features
    * only use gaps and spans).
    */
  def windowHistory(spec: WindowSpec, histories: Map[Long, Vector[Decision]]): Vector[Decision] =
    histories(spec.matcherId).slice(spec.start, spec.start + spec.size).zipWithIndex.map {
      case (d, i) => d.copy(matcherId = spec.entityId, seq = i)
    }

  /** Builds the full training/testing feature tables and labels for one
    * experiment split. Measures, consensus and sequences come from the
    * handles' in-memory histories; no Spark job runs here.
    *
    * @param trainH      study providing the training matchers
    * @param testH       study providing the test matchers (same handle for
    *                    the 5-fold PO experiment; the OAEI handle for IIb)
    * @param windowSizes sub-matcher recipe (VariantNone/50/70)
    * @param sharedCnns  CNNs trained earlier on the same fold, if any —
    *                    they only depend on (trainIds, labels), not on the
    *                    augmentation variant
    */
  def prepare(trainH: StudyHandle, trainIds: Vector[Long],
              testH: StudyHandle, testIds: Vector[Long],
              windowSizes: Seq[Int],
              cfg: NeuralFeatures.Config = NeuralFeatures.Config(),
              sharedCnns: Option[Map[(String, Int), Cnn]] = None,
              seed: Long = 1234L): Prepared =
    prepareVariants(trainH, trainIds, testH, testIds, Vector(windowSizes), cfg, sharedCnns,
      seed).head

  /** [[prepare]] for several sub-matcher recipes of one split, in the
    * order of `variants`. Each result equals `prepare` with that recipe and
    * the same arguments, bit for bit, and they share one set of CNNs.
    *
    * What does not depend on the recipe is computed once: thresholds and
    * labels, the train consensus, the base features, the matchers'
    * sequences, the CNNs (trained up front unless `sharedCnns` is given)
    * and the Phi_Spa rows. The windows' histories, labels and sequences are
    * computed per window on [[Par]]. The variants' LSTMs then train in one
    * `Par.map`, four per variant in the order of `variants`, so pass the
    * recipe with the most windows first: its four fits are the longest,
    * and they start together.
    */
  def prepareVariants(trainH: StudyHandle, trainIds: Vector[Long],
                      testH: StudyHandle, testIds: Vector[Long],
                      variants: Seq[Seq[Int]],
                      cfg: NeuralFeatures.Config = NeuralFeatures.Config(),
                      sharedCnns: Option[Map[(String, Int), Cnn]] = None,
                      seed: Long = 1234L): Vector[Prepared] = {
    // Sub-matcher entities: per the paper, the augmentation windows exist
    // "to ensure sufficient data for a deep network" and are used only
    // during training — they feed the LSTMs, not the final classifier.
    val specs = variants.toVector.map(windows(trainH.historyByMatcher, trainIds, _))
    // Labels and sequences of the three id sets are merged into one map
    // each below, where a shared id would silently overwrite.
    for (windowIds <- specs.map(_.map(_.entityId));
         (a, b, what) <- Seq((windowIds, trainIds, "window and train"),
                             (windowIds, testIds, "window and test"),
                             (trainIds, testIds, "train and test"))) {
      val shared = a.toSet.intersect(b.toSet)
      require(shared.isEmpty, s"$what ids overlap: ${shared.toSeq.sorted.take(5).mkString(", ")}")
    }

    // Measures, thresholds (train population only), labels.
    val trainMeasures = trainIds.map(trainH.measures)
    val thresholds = Thresholds.fromTrain(trainMeasures)
    val trainMatcherLabels = Measures.characterize(trainMeasures, thresholds)
    val testLabels = Measures.characterize(testIds.map(testH.measures), thresholds)

    // Consensus over the training matchers' final matrices (Section III-B).
    val trainHistories = trainIds.map(id => id -> trainH.historyByMatcher(id)).toMap
    val consensus = MatrixOps.consensusOf(trainHistories.values)

    // Base features of the train/test matchers from the study caches.
    val base: FeatureTable = FeatureTable(trainH.baseFeatures.names,
      trainH.baseFeatures.rows.view.filterKeys(trainIds.toSet).toMap ++
        testH.baseFeatures.rows.view.filterKeys(testIds.toSet).toMap)

    // Sequences for the LSTMs: train matchers + sub-matchers with the
    // train-fold consensus. Consensus is unsupervised (it never touches
    // the reference match), so test matchers on a *different* task use
    // the agreement within their own population — feeding the PO-trained
    // LSTM a pi channel on the same scale instead of all-zeros.
    val nTrain = trainIds.size
    val seqTrain = trainHistories.view.mapValues(SeqFeatures.of(_, consensus, nTrain)).toMap
    val testHistories = testIds.map(id => id -> testH.historyByMatcher(id)).toMap
    val (testConsensus, nTestPop) =
      if (testH eq trainH) (consensus, nTrain)
      else (MatrixOps.consensusOf(testHistories.values), testIds.size)
    val seqs = seqTrain ++ testHistories.view.mapValues(SeqFeatures.of(_, testConsensus, nTestPop))

    // CNNs on training matchers only (shared across variants of the fold).
    val trainMaps = trainH.heatMaps
    val testMaps = if (testH eq trainH) trainMaps else testH.heatMaps
    val cnns = sharedCnns.getOrElse(
      NeuralFeatures.trainCnns(trainMaps, trainMatcherLabels, trainIds, cfg, seed))

    // Per window: its history, its labels from that sub-history against
    // the train thresholds (the measures are defined on any history), and
    // its sequence under the train consensus.
    val task = trainH.study.task
    val lstmSets = specs.map { vSpecs =>
      val perWindow = Par.map(vSpecs) { s =>
        val h = windowHistory(s, trainH.historyByMatcher)
        val labels = Measures.of(s.entityId, h, task.referenceSet, task.reference.size)
          .map(MatcherMeasures.labels(_, thresholds))
        (s.entityId, labels, SeqFeatures.of(h, consensus, nTrain))
      }
      NeuralFeatures.LstmSet(trainIds ++ vSpecs.map(_.entityId),
        seqTrain ++ perWindow.map { case (id, _, seq) => id -> seq },
        trainMatcherLabels ++ perWindow.collect { case (id, Some(l), _) => id -> l })
    }

    // Neural models: every variant's LSTMs on matchers + windows, in one
    // wave with the first variant's four fits first.
    val lstms = NeuralFeatures.trainLstms(lstmSets, cfg, seed)

    def mapsOf(id: Long) = if (trainIds.contains(id)) trainMaps else testMaps

    // The nets only predict here, so the rows are computed concurrently.
    val allIds = trainIds ++ testIds
    val rows = Par.map(allIds) { id =>
      val seq = seqs.getOrElse(id, IndexedSeq.empty)
      (lstms.map(NeuralFeatures.seqVector(_, seq)), NeuralFeatures.spaVector(cnns, mapsOf(id), id))
    }
    lstmSets.zipWithIndex.map { case (set, v) =>
      val neural = FeatureTable(
        NeuralFeatures.seqNames ++ NeuralFeatures.spaNames,
        allIds.zip(rows).map { case (id, (seqRows, spa)) => id -> (seqRows(v) ++ spa) }.toMap)
      Prepared(base.names ++ neural.names, trainIds, testIds,
        base ++ neural, trainMatcherLabels, testLabels, thresholds, cnns,
        nLstmTrainSeqs = set.ids.size)
    }
  }

  /** Trains the per-label binary-relevance classifiers over the selected
    * feature groups, concurrently and each from its own seed, and
    * evaluates on the test matchers.
    */
  def fit(p: Prepared, groups: Set[String] = FeatureTable.AllGroups,
          seed: Long = 99L): FitResult = {
    val table = p.features.select(groups)
    val std = Standardizer.fit(p.trainIds.map(table.vector))
    val trainX = p.trainIds.map(id => std.transform(table.vector(id))).toIndexedSeq
    val testX = p.testIds.map(id => std.transform(table.vector(id))).toIndexedSeq

    val models = Par.map(0 until Labels.Count) { l =>
      val y = p.trainIds.map(id => p.trainLabels(id)(l)).toIndexedSeq
      ModelSelection.selectAndTrain(trainX, y, seed = seed + l)
    }.toArray
    val preds = p.testIds.zipWithIndex.map { case (id, i) =>
      id -> models.map(_._2.predict(testX(i)))
    }.toMap
    FitResult(preds, evaluate(preds, p.testLabels), models, std, table.names)
  }

  /** Accuracies of a prediction set against ground-truth labels. */
  def evaluate(pred: Map[Long, Array[Boolean]],
               truth: Map[Long, Array[Boolean]]): Accuracies = {
    val ids = truth.keys.toVector.sorted
    val t = ids.map(truth)
    val q = ids.map(pred)
    Accuracies(
      Metrics.singleAccuracy(t, q, Labels.Precise),
      Metrics.singleAccuracy(t, q, Labels.Thorough),
      Metrics.singleAccuracy(t, q, Labels.Correlated),
      Metrics.singleAccuracy(t, q, Labels.Calibrated),
      Metrics.multiLabelAccuracy(t, q),
    )
  }
}
