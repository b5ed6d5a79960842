package repro.core

import org.apache.spark.sql.SparkSession
import repro.ml.ModelSelection

/** Orchestration of the paper's evaluation (Section IV): Table IIa/IIb
  * (expert identification and generalizability), Table III (ablation),
  * Table IV (feature importance) and the Section IV-F expert-utilization
  * analysis. Bench suites and spark-submit jobs both call these entry
  * points; EXPERIMENTS.md records paper vs measured numbers.
  */
object Experiments {

  final case class TableRow(method: String, acc: MExI.Accuracies)

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
  )

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

  /** Prepares and fits the three MExI variants for one fold, sharing the
    * fold's CNNs (they do not depend on the augmentation variant). MExI_0
    * prepares first, because it trains those CNNs; MExI_50 and MExI_70
    * then prepare concurrently, and the three fits run concurrently after
    * them. Every job keeps its seed and only reads the shared nets and
    * handles, so the artifacts equal a sequential run bit for bit. `spark`
    * is unused: `prepare` reads only the handles' in-memory histories and
    * cached aggregates. It keeps the signature of the other entry points.
    */
  def computeFold(spark: SparkSession, trainH: StudyHandle, testH: StudyHandle,
                  trainIds: Vector[Long], testIds: Vector[Long],
                  cfg: NeuralFeatures.Config, seed: Long): FoldArtifacts = {
    val pNone = MExI.prepare(trainH, trainIds, testH, testIds,
      MExI.VariantNone, cfg, sharedCnns = None, seed = seed)
    val Vector(p50, p70) = Par.map(Vector(MExI.Variant50, MExI.Variant70)) { sizes =>
      MExI.prepare(trainH, trainIds, testH, testIds,
        sizes, cfg, sharedCnns = Some(pNone.cnns), seed = seed)
    }
    val Vector(fitNone, fit50, fit70) = Par.map(Vector(pNone, p50, p70))(MExI.fit(_, seed = seed))
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

  private def meanRows(perFold: Seq[Vector[TableRow]]): Vector[TableRow] = {
    val methods = perFold.head.map(_.method)
    methods.map { m =>
      val accs = perFold.map(_.find(_.method == m).get.acc)
      TableRow(m, MExI.Accuracies(
        accs.map(_.aP).sum / accs.size,
        accs.map(_.aR).sum / accs.size,
        accs.map(_.aRes).sum / accs.size,
        accs.map(_.aCal).sum / accs.size,
        accs.map(_.aML).sum / accs.size))
    }.toVector
  }

  /** Table IIa: 5-fold CV over the PO population — average accuracies of
    * the 7 baselines and the 3 MExI variants. Also returns the per-fold
    * artifacts for reuse by tables III/IV and Section IV-F.
    */
  def tableIIa(spark: SparkSession, po: StudyHandle, cfg: NeuralFeatures.Config,
               folds: Int = 5, seed: Long = 77L)
      : (Vector[TableRow], Vector[FoldArtifacts]) = {
    val splits = foldSplits(po.matcherIds, folds, seed)
    val artifacts = splits.zipWithIndex.map { case ((train, test), i) =>
      computeFold(spark, po, po, train, test, cfg, seed + 100 * i)
    }
    val perFold = artifacts.zipWithIndex.map { case (a, i) =>
      baselineRows(po, po, a, seed + 1000 + i) ++ Vector(
        TableRow("MExI_0", a.fitNone.accuracies),
        TableRow("MExI_50", a.fit50.accuracies),
        TableRow("MExI_70", a.fit70.accuracies))
    }
    (meanRows(perFold), artifacts)
  }

  /** Table IIb: train on all 106 PO matchers, test on the 34 OAEI
    * matchers (generalizability across matching tasks).
    */
  def tableIIb(spark: SparkSession, po: StudyHandle, oaei: StudyHandle,
               cfg: NeuralFeatures.Config, seed: Long = 177L): Vector[TableRow] = {
    val a = computeFold(spark, po, oaei, po.matcherIds, oaei.matcherIds, cfg, seed)
    baselineRows(po, oaei, a, seed) ++ Vector(
      TableRow("MExI_0", a.fitNone.accuracies),
      TableRow("MExI_50", a.fit50.accuracies),
      TableRow("MExI_70", a.fit70.accuracies))
  }

  /** Table III: include/exclude ablation of the five feature sets on
    * MExI_50, averaged over the IIa folds. A fold's 10 ablation fits run
    * concurrently.
    */
  def tableIII(artifacts: Vector[FoldArtifacts], seed: Long = 277L)
      : Vector[TableRow] = {
    val sets = Vector("lrsm", "mou", "beh", "seq", "spa")
    val ablations = sets.map(s => s"include $s" -> Set(s)) ++
      sets.map(s => s"exclude $s" -> (FeatureTable.AllGroups - s))
    val perFold = artifacts.map { a =>
      Vector(TableRow("MExI_50", a.fit50.accuracies)) ++
        Par.map(ablations) { case (method, groups) =>
          TableRow(method, MExI.fit(a.p50, groups, seed).accuracies)
        }
    }
    meanRows(perFold)
  }

  /** Table IV: the two most informative features per feature set and
    * characteristic — permutation importance (our SHAP stand-in) of the
    * per-set models, summed over folds. The 20 (set, label) cells run
    * concurrently; each sums its folds in order.
    */
  def tableIV(artifacts: Vector[FoldArtifacts], seed: Long = 377L)
      : Map[(String, String), Vector[String]] = {
    val sets = Vector("lrsm", "mou", "beh", "seq", "spa")
    val cells = for (s <- sets; l <- 0 until Labels.Count) yield (s, l)
    Par.map(cells) { case (s, l) =>
      val importance = scala.collection.mutable.Map.empty[String, Double]
      artifacts.foreach { a =>
        val table = a.p50.features.select(Set(s))
        val std = repro.ml.Standardizer.fit(a.p50.trainIds.map(table.vector))
        val xs = a.p50.trainIds.map(id => std.transform(table.vector(id))).toIndexedSeq
        val ys = a.p50.trainIds.map(id => a.p50.trainLabels(id)(l)).toIndexedSeq
        val (_, model) = ModelSelection.selectAndTrain(xs, ys, seed = seed + l)
        val imp = ModelSelection.permutationImportance(model, xs, ys, seed = seed)
        table.names.zip(imp).foreach { case (n, v) =>
          importance(n) = importance.getOrElse(n, 0.0) + v
        }
      }
      val top2 = importance.toVector.sortBy(-_._2).take(2).map(_._1)
      (s, Labels.Names(l)) -> top2
    }.toMap
  }

  /** Section IV-F rows: mean (P, R, Res, |Cal|) of the matchers each
    * selector keeps, over the whole PO population (test-fold predictions
    * of the IIa CV for MExI). Also returns the fused-match quality of the
    * selected set vs the full population.
    */
  final case class UtilizationRow(method: String, n: Int, p: Double, r: Double,
                                  res: Double, absCal: Double,
                                  fusedP: Double, fusedR: Double)

  def utilization(spark: SparkSession, po: StudyHandle,
                  cvPred: Map[Long, Array[Boolean]],
                  thresholds: Thresholds): Vector[UtilizationRow] = {
    val allIds = po.matcherIds

    val mexiExperts = allIds.filter(id => cvPred(id).forall(identity)).toSet
    val confPred = Baselines.conf(po.meanConf, allIds, allIds)
    val qualPred = Baselines.qualTest(po.warmupMeasures, allIds, thresholds)
    val selfPred = Baselines.selfAssess(po.warmupMeasures, allIds)

    def keep(pred: Map[Long, Array[Boolean]]): Set[Long] =
      allIds.filter(id => pred(id).forall(identity)).toSet

    val selections = Vector(
      "no_filter" -> allIds.toSet,
      "Conf" -> keep(confPred),
      "Qual. Test" -> keep(qualPred),
      "Self-Assess" -> keep(selfPred),
      "MExI" -> mexiExperts,
    )
    selections.map { case (name, ids0) =>
      // An empty selection degrades to the full population (a system would
      // fall back rather than ship an empty match).
      val ids = if (ids0.isEmpty) allIds.toSet else ids0
      val (p, r, res, cal) = ExpertFilter.measureStats(po.measures, ids)
      val fused = ExpertFilter.fusedMatch(po.decisions, ids, voteFrac = 0.4)
      val (fp, fr) = ExpertFilter.fusedQuality(fused, po.reference,
        po.study.task.reference.size)
      UtilizationRow(name, ids.size, p, r, res, cal, fp, fr)
    }
  }

  /** Early-identification predictions (Figure 11): refit each fold with the
    * test matchers truncated to their first `k` decisions. Training, the
    * fold's CNNs and the seeds are unchanged, so the LSTMs retrain to the
    * same weights and only the test-side features change.
    */
  def earlyPredictions(po: StudyHandle, truncated: StudyHandle,
                       artifacts: Vector[FoldArtifacts], cfg: NeuralFeatures.Config,
                       seed: Long = 77L): Map[Long, Array[Boolean]] = {
    artifacts.zipWithIndex.flatMap { case (a, i) =>
      val p = MExI.prepare(po, a.trainIds, truncated, a.testIds,
        MExI.Variant50, cfg, sharedCnns = Some(a.pNone.cnns), seed = seed + 100 * i)
      MExI.fit(p, seed = seed + 100 * i).predictions
    }.toMap
  }

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
