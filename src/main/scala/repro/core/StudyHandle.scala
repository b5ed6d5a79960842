package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.synth.StudyData

/** Per-study state shared by every fold of an experiment, none of which
  * depends on the train/test split: the in-memory histories and mouse
  * events, and the per-matcher aggregates the kernels compute from them
  * (measures, base features, heat maps, mean confidence). The
  * decision/mouse/reference/warm-up DataFrames behind the relational stages
  * (Eq. 1 and consensus, `SeqFeatures.sequences`, the Section IV-F fused
  * vote) are built and cached on first use, so a handle that only feeds
  * the Table II-IV folds runs no Spark job. They are views over the
  * study's vectors (see `StudyData`). The handle keeps no grouped copy of
  * the mouse events (`baseFeatures` and the heat maps group them while
  * they compute) and keeps the heat maps sparse, so it holds little beyond
  * the study and the aggregates it has computed.
  *
  * The fold runs its jobs concurrently, and they read the lazy aggregates
  * from several threads. A Scala lazy val locks its object while it
  * initialises, so no initialiser here may start concurrent work that
  * reads another of them.
  *
  * The constructor validates the study once, and fails on input the
  * kernels cannot handle: per matcher, `seq` must run 0..n-1 and `ts` must
  * be finite and not decrease in `seq` order (the gap channel and the
  * Eq. 1 tie-break rely on both); every confidence must lie in [0, 1].
  * Every mouse event kind must be one of `MouseKinds.All`, its `x` must lie
  * in [0, screenW] and its `y` in [0, screenH] (the heat-map cells, where
  * a NaN would land in cell 0), and its `ts` must be finite.
  */
final class StudyHandle(val spark: SparkSession, val study: StudyData) {

  /** Main-task histories per matcher, in decision order. */
  val historyByMatcher: Map[Long, Vector[Decision]] =
    StudyHandle.histories(study.decisions, "decision")

  private val warmupHistories: Map[Long, Vector[Decision]] =
    StudyHandle.histories(study.warmupDecisions, "warm-up decision")

  locally {
    val kinds = MouseKinds.All.toSet
    val (w, h) = (study.task.screenW, study.task.screenH)
    study.mouse.foreach { e =>
      def fail(msg: String) = throw new IllegalArgumentException(s"matcher ${e.matcherId}: $msg")
      if (!kinds(e.kind)) fail(s"unknown mouse event kind '${e.kind}'")
      if (!(e.x >= 0.0 && e.x <= w)) fail(s"mouse event x ${e.x} outside [0, $w]")
      if (!(e.y >= 0.0 && e.y <= h)) fail(s"mouse event y ${e.y} outside [0, $h]")
      if (!java.lang.Double.isFinite(e.ts)) fail(s"mouse event ts ${e.ts} is not finite")
    }
  }

  lazy val decisions: DataFrame = study.decisionsDf(spark).cache()
  lazy val mouse: DataFrame = study.mouseDf(spark).cache()
  lazy val reference: DataFrame = study.referenceDf(spark).cache()
  lazy val warmup: DataFrame = study.warmupDf(spark).cache()

  val matcherIds: Vector[Long] = study.traits.map(_.matcherId)

  /** Main-task measures per matcher (Section II-B). */
  lazy val measures: Map[Long, MatcherMeasures] =
    Measures.perMatcher(historyByMatcher, study.task.referenceSet, study.task.reference.size)

  /** Warm-up measures per matcher, for the Qual. Test / Self-Assess
    * baselines (Section IV-B2).
    */
  lazy val warmupMeasures: Map[Long, MatcherMeasures] =
    Measures.perMatcher(warmupHistories, study.warmupTask.referenceSet,
      study.warmupTask.reference.size)

  /** Phi_LRSM + Phi_Beh + Phi_Mou of every matcher with decisions or mouse
    * events; a matcher missing one stream gets zeros for its features.
    */
  lazy val baseFeatures: FeatureTable = {
    val mouseByMatcher = study.mouse.groupBy(_.matcherId)
    val rows = (historyByMatcher.keySet ++ mouseByMatcher.keySet).iterator.map { id =>
      val h = historyByMatcher.getOrElse(id, Vector.empty)
      id -> (Predictors.of(h, study.task.nA, study.task.nB) ++ BehavioralFeatures.of(h) ++
        MouseFeatures.of(mouseByMatcher.getOrElse(id, Vector.empty)))
    }.toMap
    FeatureTable(Predictors.names ++ BehavioralFeatures.names ++ MouseFeatures.names, rows)
  }

  private lazy val sparseHeatMaps: Map[(Long, String), HeatMap.Sparse] =
    for {
      (id, events) <- study.mouse.groupBy(_.matcherId)
      (kind, grid) <- HeatMap.of(events, study.task.screenW, study.task.screenH)
    } yield (id, kind) -> HeatMap.Sparse(grid)

  /** Down-sampled heat maps per (matcher, event type). The handle keeps
    * only their non-zero cells, and each call builds the dense grids
    * afresh, so a caller holds them only while it needs them.
    */
  def heatMaps: Map[(Long, String), Array[Array[Double]]] =
    sparseHeatMaps.view.mapValues(_.dense).toMap

  /** Mean reported confidence per matcher (the Conf baseline's score). */
  lazy val meanConf: Map[Long, Double] =
    historyByMatcher.view.mapValues(Measures.meanConfidence).toMap
}

object StudyHandle {

  /** Groups decisions per matcher in `seq` order and checks the history
    * invariants stated on [[StudyHandle]]; `what` names the stream in
    * error messages.
    */
  private def histories(ds: Vector[Decision], what: String): Map[Long, Vector[Decision]] = {
    val byMatcher = ds.groupBy(_.matcherId).view.mapValues(_.sortBy(_.seq)).toMap
    for ((id, h) <- byMatcher) {
      def fail(msg: String) = throw new IllegalArgumentException(s"matcher $id: $msg")
      h.indices.find(i => h(i).seq != i).foreach { i =>
        fail(s"$what seq ${h(i).seq} at position $i; seq must run 0..${h.size - 1}")
      }
      h.find(d => !java.lang.Double.isFinite(d.ts)).foreach { d =>
        fail(s"$what ${d.seq} has ts ${d.ts}, which is not finite")
      }
      h.indices.drop(1).find(i => h(i).ts < h(i - 1).ts).foreach { i =>
        fail(s"$what $i has ts ${h(i).ts} before ts ${h(i - 1).ts} of decision ${i - 1}")
      }
      h.find(d => !(d.conf >= 0.0 && d.conf <= 1.0)).foreach { d =>
        fail(s"$what ${d.seq} has conf ${d.conf} outside [0, 1]")
      }
    }
    byMatcher
  }
}
