package repro.core

import repro.ml.{Metrics, ModelSelection, Standardizer, TrainedModel}
import repro.nn.{Cnn, Lstm}

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

  /** One prepared variant of a split: feature rows with labels for the
    * training and test matchers, and the nets that built the neural rows,
    * so [[features]] can build rows of the same layout for other matchers.
    * `trainH` is the handle the training matchers come from.
    * `nLstmTrainSeqs` records how many sequences (matchers + sub-matchers)
    * the LSTMs saw — the knob the augmentation variants turn.
    */
  final case class Prepared(
      names: Vector[String],
      trainH: StudyHandle,
      trainIds: Vector[Long],
      testIds: Vector[Long],
      features: FeatureTable,
      trainLabels: Map[Long, Array[Boolean]],
      testLabels: Map[Long, Array[Boolean]],
      thresholds: Thresholds,
      lstms: Array[Lstm],
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

  /** Builds the training and test feature tables and labels of one
    * experiment split, for several sub-matcher recipes, in the order of
    * `variants`. Measures, consensus and sequences come from the handles'
    * in-memory histories; no Spark job runs here.
    *
    * What does not depend on the recipe is computed once: thresholds and
    * labels, the train consensus, the matchers' sequences, the CNNs
    * (trained up front) and the rows' base features and Phi_Spa. The
    * windows' histories, labels and sequences are computed per window on
    * [[Par]]. The variants' LSTMs then train in one `Par.map`, four per
    * variant in the order of `variants`, so pass the recipe with the most
    * windows first: its four fits are the longest, and they start together.
    *
    * @param trainH      study providing the training matchers
    * @param testH       study providing the test matchers (same handle for
    *                    the 5-fold PO experiment; the OAEI handle for IIb)
    * @param variants    sub-matcher recipes (VariantNone/50/70)
    */
  def prepareVariants(trainH: StudyHandle, trainIds: Vector[Long],
                      testH: StudyHandle, testIds: Vector[Long],
                      variants: Seq[Seq[Int]],
                      cfg: NeuralFeatures.Config = NeuralFeatures.Config(),
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

    // Sequences for the LSTMs: train matchers + sub-matchers with the
    // consensus over the training matchers' final matrices (Section III-B).
    val consensus = MatrixOps.consensusOf(trainIds.map(trainH.historyByMatcher))
    val nTrain = trainIds.size
    val seqTrain = trainIds.map(id =>
      id -> SeqFeatures.of(trainH.historyByMatcher(id), consensus, nTrain)).toMap

    // CNNs on training matchers only (shared across variants of the fold).
    val trainMaps = trainH.heatMaps
    val cnns = NeuralFeatures.trainCnns(trainMaps, trainMatcherLabels, trainIds, cfg, seed)

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

    // One row set per handle, so each handle's heat maps are built once.
    val populations =
      if (testH eq trainH) Vector((trainH, trainMaps, trainIds ++ testIds))
      else Vector((trainH, trainMaps, trainIds), (testH, testH.heatMaps, testIds))
    val tables = Par.map(populations) { case (h, maps, ids) =>
      featureRows(trainH, trainIds, h, maps, ids, lstms, cnns)
    }
    lstmSets.indices.toVector.map { v =>
      val features = tables.map(_(v)).reduce((a, b) => FeatureTable(a.names, a.rows ++ b.rows))
      Prepared(features.names, trainH, trainIds, testIds, features, trainMatcherLabels,
        testLabels, thresholds, lstms(v), cnns, nLstmTrainSeqs = lstmSets(v).ids.size)
    }
  }

  /** The rows `fit` trains on and `predict` reads, for the `ids` of
    * handle `h`, built by `p`'s nets: base features from `h.baseFeatures`,
    * Phi_Seq from the LSTMs and Phi_Spa from the CNNs over `h.heatMaps`.
    * Phi_Seq's consensus channel follows the rule of DESIGN.md §6.
    */
  def features(p: Prepared, h: StudyHandle, ids: Vector[Long]): FeatureTable =
    featureRows(p.trainH, p.trainIds, h, h.heatMaps, ids, Vector(p.lstms), p.cnns).head

  /** [[features]] for several LSTM sets at once, one table per set; `maps`
    * are `h`'s heat maps. The sequences carry the training consensus when
    * `h` is the training handle. Consensus is unsupervised (it never
    * touches the reference match), so matchers of another handle (another
    * task, or truncated histories) get the agreement within their own
    * population, `ids`: a pi channel on the same scale instead of all
    * zeros. The nets only predict here, so the ids run concurrently, and
    * each id's CNN coefficients serve every set.
    */
  private def featureRows(trainH: StudyHandle, trainIds: Vector[Long],
                          h: StudyHandle, maps: Map[(Long, String), Array[Array[Double]]],
                          ids: Vector[Long], lstms: Vector[Array[Lstm]],
                          cnns: Map[(String, Int), Cnn]): Vector[FeatureTable] = {
    val population = if (h eq trainH) trainIds else ids
    val consensus = MatrixOps.consensusOf(population.map(h.historyByMatcher))
    val base = h.baseFeatures
    val neural = Par.map(ids) { id =>
      val seq = SeqFeatures.of(h.historyByMatcher(id), consensus, population.size)
      (lstms.map(NeuralFeatures.seqVector(_, seq)), NeuralFeatures.spaVector(cnns, maps, id))
    }
    val names = base.names ++ NeuralFeatures.seqNames ++ NeuralFeatures.spaNames
    lstms.indices.toVector.map { v =>
      FeatureTable(names, ids.zip(neural).map { case (id, (seqRows, spa)) =>
        id -> (base.vector(id) ++ seqRows(v) ++ spa)
      }.toMap)
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
    val models = Par.map(0 until Labels.Count) { l =>
      val y = p.trainIds.map(id => p.trainLabels(id)(l)).toIndexedSeq
      ModelSelection.selectAndTrain(trainX, y, seed = seed + l)
    }.toArray
    val preds = classify(models, std, p.testIds.map(id => id -> table.vector(id)))
    FitResult(preds, evaluate(preds, p.testLabels), models, std, table.names)
  }

  /** The per-label predictions of a fitted MExI for every row of `rows`,
    * whose columns must include `r.names` (rows from [[features]] do).
    */
  def predict(r: FitResult, rows: FeatureTable): Map[Long, Array[Boolean]] =
    classify(r.models, r.standardizer, rows.columns(r.names).rows)

  private def classify(models: Array[(String, TrainedModel)], std: Standardizer,
                       rows: Iterable[(Long, Array[Double])]): Map[Long, Array[Boolean]] =
    rows.map { case (id, v) =>
      val x = std.transform(v)
      id -> models.map(_._2.predict(x))
    }.toMap

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
