package repro.core

import org.apache.spark.sql.SparkSession
import repro.ml.ModelSelection

/** Orchestration of the paper's evaluation (Section IV): Table IIa/IIb
  * (expert identification and generalizability), Table III (ablation),
  * Table IV (feature importance) and the Section IV-F expert-utilization
  * analysis. [[run]] computes all of them as one [[Run]]; the bench suites
  * print and check its tables, and EXPERIMENTS.md records paper vs
  * measured numbers.
  */
object Experiments {

  /** A row of a printed table, named by its method or selector. */
  trait Row { def method: String }

  final case class TableRow(method: String, acc: MExI.Accuracies) extends Row

  /** The whole evaluation of Section IV: Tables IIa, IIb, III and IV, and
    * Figs. 10-11 as tables. Table IV maps (feature set, label name) to its
    * top-2 features.
    */
  final case class Run(
      iia: Vector[TableRow],
      iib: Vector[TableRow],
      iii: Vector[TableRow],
      iv: Map[(String, String), Vector[String]],
      fig10: Vector[UtilizationRow],
      fig11: Vector[UtilizationRow],
  )

  // The experiment's seeds. IIa fold i trains from seed IIaSeed + 100 i
  // and its baselines draw from IIaSeed + 1000 + i.
  private val IIaSeed = 77L
  private val IIbSeed = 177L
  private val IIISeed = 277L
  private val IVSeed = 377L

  /** Runs the paper's evaluation on the PO and OAEI studies.
    *
    *  - Table IIa: 5-fold CV over `po`, the means over folds of the seven
    *    baselines and the three MExI variants.
    *  - Table IIb: train on every `po` matcher, test on every `oaei` matcher
    *    (generalizability across matching tasks).
    *  - Tables III and IV over the IIa folds.
    *  - Fig. 10: Section IV-F over the whole PO population, with MExI's
    *    selection from the test-fold predictions of the IIa CV.
    *  - Fig. 11: the same with each fold's MExI_50 predicting from its test
    *    matchers' first 30 decisions (early identification).
    *
    * Both figures pass fold 0's thresholds to the Qual. Test selector.
    */
  def run(po: StudyHandle, oaei: StudyHandle, cfg: NeuralFeatures.Config): Run = {
    val artifacts = foldSplits(po.matcherIds, 5, IIaSeed).zipWithIndex.map {
      case ((train, test), i) => fold(po, po, train, test, cfg, IIaSeed + 100 * i)
    }
    val iia = meanRows(artifacts.zipWithIndex.map { case (a, i) =>
      baselineRows(po, po, a, IIaSeed + 1000 + i) ++ a.mexiRows
    })
    val b = fold(po, oaei, po.matcherIds, oaei.matcherIds, cfg, IIbSeed)
    val iib = baselineRows(po, oaei, b, IIbSeed) ++ b.mexiRows
    val thresholds = artifacts.head.p50.thresholds
    val cvPred = artifacts.flatMap(_.fit50.predictions).toMap
    val truncated = new StudyHandle(po.spark, ExpertFilter.truncateStudy(po.study, k = 30))
    Run(iia, iib, tableIII(artifacts), tableIV(artifacts),
      utilization(po, cvPred, thresholds),
      utilization(po, earlyPredictions(truncated, artifacts), thresholds))
  }

  /** Everything computed once per fold and reused by IIa, III, IV, IV-F. */
  final case class FoldArtifacts(
      trainIds: Vector[Long],
      testIds: Vector[Long],
      pNone: MExI.Prepared,
      p50: MExI.Prepared,
      p70: MExI.Prepared,
      fitNone: MExI.FitResult,
      fit50: MExI.FitResult,
      fit70: MExI.FitResult,
  ) {
    /** The fold's three MExI rows, as Tables IIa and IIb print them. */
    def mexiRows: Vector[TableRow] = Vector(
      TableRow("MExI_0", fitNone.accuracies),
      TableRow("MExI_50", fit50.accuracies),
      TableRow("MExI_70", fit70.accuracies))
  }

  /** Round-robin k-fold split after a seeded shuffle (the paper randomly
    * splits 106 PO matchers into 5 folds of ~22).
    */
  def foldSplits(ids: Vector[Long], k: Int, seed: Long)
      : Vector[(Vector[Long], Vector[Long])] = {
    val rnd = new java.util.Random(seed)
    val shuffled = scala.util.Random.javaRandomToRandom(rnd).shuffle(ids)
    (0 until k).toVector.map { f =>
      val test = shuffled.zipWithIndex.collect { case (id, i) if i % k == f => id }
      val train = shuffled.zipWithIndex.collect { case (id, i) if i % k != f => id }
      (train, test)
    }
  }

  /** Prepares and fits the three MExI variants for one fold. One
    * `MExI.prepareVariants` call trains the fold's 16 CNNs once, up front,
    * and prepares MExI_70, MExI_50 and MExI_0 side by side; their 12 LSTMs
    * train in one wave with MExI_70's four longest fits first. The three
    * fits then run concurrently. Every job keeps its seed and only reads
    * the shared nets and handles, so the artifacts equal a sequential run
    * bit for bit. `spark` is unused: `prepareVariants` reads only the
    * handles' in-memory histories and cached aggregates. It stays in the
    * signature because the benchmark harness under `perfbench/` calls this
    * entry point with it; [[run]] calls `fold`.
    */
  def computeFold(spark: SparkSession, trainH: StudyHandle, testH: StudyHandle,
                  trainIds: Vector[Long], testIds: Vector[Long],
                  cfg: NeuralFeatures.Config, seed: Long): FoldArtifacts =
    fold(trainH, testH, trainIds, testIds, cfg, seed)

  private def fold(trainH: StudyHandle, testH: StudyHandle, trainIds: Vector[Long],
                   testIds: Vector[Long], cfg: NeuralFeatures.Config, seed: Long): FoldArtifacts = {
    val Vector(p70, p50, pNone) = MExI.prepareVariants(trainH, trainIds, testH, testIds,
      Vector(MExI.Variant70, MExI.Variant50, MExI.VariantNone), cfg, seed = seed)
    val Vector(fit70, fit50, fitNone) = Par.map(Vector(p70, p50, pNone))(MExI.fit(_, seed = seed))
    FoldArtifacts(trainIds, testIds, pNone, p50, p70, fitNone, fit50, fit70)
  }

  /** Accuracy rows for the seven baselines on one fold. LRSM and BEH are
    * the learning-based baselines: the same classifier stack restricted to
    * matching predictors, resp. behavioral (history + mouse) aggregates.
    * Two distinct handles must not share a matcher id: the Conf baseline
    * reads their mean confidences from one merged map. The LRSM and BEH
    * fits run concurrently.
    */
  def baselineRows(trainH: StudyHandle, testH: StudyHandle, a: FoldArtifacts,
                   seed: Long): Vector[TableRow] = {
    val meanConf =
      if (trainH eq testH) trainH.meanConf
      else {
        val shared = trainH.meanConf.keySet.intersect(testH.meanConf.keySet)
        require(shared.isEmpty,
          s"train and test handles share matcher ids: ${shared.toSeq.sorted.take(5).mkString(", ")}")
        trainH.meanConf ++ testH.meanConf
      }
    val p50 = a.p50
    val truth = p50.testLabels
    def eval(pred: Map[Long, Array[Boolean]]) = MExI.evaluate(pred, truth)
    val trainMatcherLabels = a.trainIds.map(p50.trainLabels)
    val Vector(lrsm, beh) = Par.map(Vector(Set("lrsm"), Set("beh", "mou"))) { groups =>
      MExI.fit(p50, groups, seed).accuracies
    }
    Vector(
      TableRow("Rand", eval(Baselines.rand(a.testIds, seed))),
      TableRow("Rand_Freq", eval(Baselines.randFreq(trainMatcherLabels, a.testIds, seed + 1))),
      TableRow("Conf", eval(Baselines.conf(meanConf, a.trainIds, a.testIds))),
      TableRow("Qual. Test", eval(Baselines.qualTest(
        testH.warmupMeasures, a.testIds, p50.thresholds))),
      TableRow("Self-Assess", eval(Baselines.selfAssess(
        testH.warmupMeasures, a.testIds))),
      TableRow("LRSM", lrsm),
      TableRow("BEH", beh),
    )
  }

  /** Each method's accuracies averaged over the folds, in fold order. */
  private def meanRows(perFold: Seq[Vector[TableRow]]): Vector[TableRow] =
    perFold.head.map { case TableRow(m, _) =>
      val accs = perFold.map(_.find(_.method == m).get.acc.toSeq)
      val Seq(p, r, res, cal, ml) = accs.transpose.map(_.sum / accs.size)
      TableRow(m, MExI.Accuracies(p, r, res, cal, ml))
    }

  /** Table III: include/exclude ablation of the five feature sets on
    * MExI_50, averaged over the IIa folds. A fold's 10 ablation fits run
    * concurrently.
    */
  def tableIII(artifacts: Vector[FoldArtifacts]): Vector[TableRow] = {
    val sets = FeatureTable.Groups
    val ablations = sets.map(s => s"include $s" -> Set(s)) ++
      sets.map(s => s"exclude $s" -> (FeatureTable.AllGroups - s))
    val perFold = artifacts.map { a =>
      Vector(TableRow("MExI_50", a.fit50.accuracies)) ++
        Par.map(ablations) { case (method, groups) =>
          TableRow(method, MExI.fit(a.p50, groups, IIISeed).accuracies)
        }
    }
    meanRows(perFold)
  }

  /** Table IV: the two most informative features per feature set and
    * characteristic — permutation importance (our SHAP stand-in), over a
    * fold's standardized training rows, of the per-label models that
    * `MExI.fit` trains on that set alone, summed over folds. The
    * (fold, set) fits and their per-label importances run concurrently;
    * each (set, label) sums its folds in order.
    */
  def tableIV(artifacts: Vector[FoldArtifacts]): Map[(String, String), Vector[String]] = {
    val sets = FeatureTable.Groups
    val fits = Par.map(for (a <- artifacts; s <- sets) yield (a.p50, s)) { case (p, s) =>
      val r = MExI.fit(p, Set(s), IVSeed)
      val table = p.features.columns(r.names)
      val xs = p.trainIds.map(id => r.standardizer.transform(table.vector(id))).toIndexedSeq
      r.names -> Par.map(0 until Labels.Count) { l =>
        val ys = p.trainIds.map(id => p.trainLabels(id)(l)).toIndexedSeq
        ModelSelection.permutationImportance(r.models(l)._2, xs, ys, seed = IVSeed)
      }
    }.grouped(sets.size).toVector // fits(fold)(set)
    (for ((s, i) <- sets.zipWithIndex; l <- 0 until Labels.Count) yield {
      val importance = scala.collection.mutable.Map.empty[String, Double]
      fits.foreach { perSet =>
        val (names, imps) = perSet(i)
        names.zip(imps(l)).foreach { case (n, v) =>
          importance(n) = importance.getOrElse(n, 0.0) + v
        }
      }
      (s, Labels.Names(l)) -> importance.toVector.sortBy(-_._2).take(2).map(_._1)
    }).toMap
  }

  /** Section IV-F rows: mean (P, R, Res, |Cal|) of the matchers each
    * selector keeps, over the whole PO population (test-fold predictions
    * of the IIa CV for MExI), and the quality of their fused match at a
    * 0.4 vote, computed in memory (`ExpertFilter.fusedMatchOf`).
    */
  final case class UtilizationRow(method: String, n: Int, p: Double, r: Double,
                                  res: Double, absCal: Double,
                                  fusedP: Double, fusedR: Double) extends Row

  def utilization(po: StudyHandle,
                  cvPred: Map[Long, Array[Boolean]],
                  thresholds: Thresholds): Vector[UtilizationRow] = {
    val allIds = po.matcherIds
    val reference = po.study.task.reference.map(p => (p.aIdx, p.bIdx))
    def keep(pred: Map[Long, Array[Boolean]]): Set[Long] =
      allIds.filter(id => pred(id).forall(identity)).toSet

    val selections = Vector(
      "no_filter" -> allIds.toSet,
      "Conf" -> keep(Baselines.conf(po.meanConf, allIds, allIds)),
      "Qual. Test" -> keep(Baselines.qualTest(po.warmupMeasures, allIds, thresholds)),
      "Self-Assess" -> keep(Baselines.selfAssess(po.warmupMeasures, allIds)),
      "MExI" -> keep(cvPred),
    )
    selections.map { case (name, ids0) =>
      // An empty selection degrades to the full population (a system would
      // fall back rather than ship an empty match).
      val ids = if (ids0.isEmpty) allIds.toSet else ids0
      val (p, r, res, cal) = ExpertFilter.measureStats(po.measures, ids)
      val fused = ExpertFilter.fusedMatchOf(po.historyByMatcher, ids, voteFrac = 0.4)
      val (fp, fr) = ExpertFilter.fusedQuality(fused, reference, reference.size)
      UtilizationRow(name, ids.size, p, r, res, cal, fp, fr)
    }
  }

  /** Early-identification predictions (Figure 11): each fold's fitted
    * MExI_50 applied to its test matchers as `truncated` holds them (their
    * first k decisions, see `ExpertFilter.truncateStudy`). Nothing trains:
    * the fold's LSTMs, CNNs, standardizer and classifiers predict from the
    * rows `MExI.features` builds over the truncated handle, whose Phi_Seq
    * carries the truncated test matchers' own consensus (DESIGN.md §6).
    */
  def earlyPredictions(truncated: StudyHandle,
                       artifacts: Vector[FoldArtifacts]): Map[Long, Array[Boolean]] =
    artifacts.flatMap(a => MExI.predict(a.fit50, MExI.features(a.p50, truncated, a.testIds))).toMap

  // --- formatting ---

  def formatAccuracyTable(title: String, rows: Vector[TableRow]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(f"${"Method"}%-12s ${"A_P"}%6s ${"A_R"}%6s ${"A_Res"}%6s ${"A_Cal"}%6s ${"A_ML"}%6s\n")
    rows.foreach { r =>
      sb.append(f"${r.method}%-12s ${r.acc.aP}%6.2f ${r.acc.aR}%6.2f " +
        f"${r.acc.aRes}%6.2f ${r.acc.aCal}%6.2f ${r.acc.aML}%6.2f\n")
    }
    sb.toString
  }

  def formatUtilization(title: String, rows: Vector[UtilizationRow]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(f"${"Selector"}%-12s ${"n"}%4s ${"P"}%6s ${"R"}%6s ${"Res"}%6s " +
      f"${"|Cal|"}%6s ${"fusedP"}%7s ${"fusedR"}%7s\n")
    rows.foreach { r =>
      sb.append(f"${r.method}%-12s ${r.n}%4d ${r.p}%6.2f ${r.r}%6.2f ${r.res}%6.2f " +
        f"${r.absCal}%6.2f ${r.fusedP}%7.2f ${r.fusedR}%7.2f\n")
    }
    sb.toString
  }
}
