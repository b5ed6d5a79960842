package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.synth.{MatchingTask, StudyData}

/** Per-study state shared by every fold of an experiment, none of which
  * depends on the train/test split: the in-memory histories, the study's
  * per-matcher mouse columns, and the per-matcher aggregates the kernels
  * compute from them (measures, base features, mean confidence). The
  * decision/mouse/reference/warm-up DataFrames behind the relational stages
  * (Eq. 1 and consensus, `SeqFeatures.sequences`, `ExpertFilter.fusedMatch`)
  * are uncached views over the study's data (see `StudyData`), built on
  * first use: a query scans the study's parallelized rows, and no job
  * copies them into Spark's cache. So a handle that feeds the paper's
  * tables and figures, Section IV-F's in-memory vote included, runs no
  * Spark job.
  *
  * The constructor computes the measures and the base features in one
  * `Par.map` over the matchers, one job per matcher. A job computes its
  * matcher's Eq. 1 entries once, and from them both the measures and the
  * Phi_LRSM row; it reads that matcher's `MouseColumns` from the study as
  * they are: no pass groups or copies the mouse events. `heatMaps` keeps
  * nothing: each call builds the grids from the mouse columns, one `Par`
  * job per matcher. The jobs of both read only locals, never the handle,
  * so a handle can be built and its heat maps read anywhere, inside a
  * `Par` job too. So the handle holds little beyond the study and its
  * aggregates.
  *
  * The fold runs its jobs concurrently, and they read the lazy aggregates
  * from several threads. A Scala lazy val locks its object while it
  * initialises, so no initialiser here may start concurrent work that
  * reads another of them.
  *
  * The constructor validates the study once, and fails on input the
  * kernels cannot handle: per matcher, `seq` must run 0..n-1 and `ts` must
  * be finite and not decrease in `seq` order (the gap channel and the
  * Eq. 1 tie-break rely on both); every confidence must lie in [0, 1], and
  * every decision's `aIdx` in [0, nA) and `bIdx` in [0, nB) of its task
  * (the main task or the warm-up task).
  * Every mouse event's `x` must lie in [0, screenW] and its `y` in
  * [0, screenH] (the heat-map cells, where a NaN would land in cell 0), and
  * its `ts` must be finite. Its kind is one of `MouseKinds.All`, which
  * `MouseColumns` checks when the events enter the columns.
  */
final class StudyHandle(val spark: SparkSession, val study: StudyData) {

  /** Main-task histories per matcher, in decision order. */
  val historyByMatcher: Map[Long, Vector[Decision]] =
    StudyHandle.histories(study.decisions, study.task, "decision")

  private val warmupHistories: Map[Long, Vector[Decision]] =
    StudyHandle.histories(study.warmupDecisions, study.warmupTask, "warm-up decision")

  locally {
    val (w, h) = (study.task.screenW, study.task.screenH)
    for ((id, es) <- study.mouse.byMatcher) {
      def fail(msg: String) = throw new IllegalArgumentException(s"matcher $id: $msg")
      var i = 0
      while (i < es.size) {
        val x = es.x(i); val y = es.y(i); val ts = es.ts(i)
        if (!(x >= 0.0 && x <= w)) fail(s"mouse event x $x outside [0, $w]")
        if (!(y >= 0.0 && y <= h)) fail(s"mouse event y $y outside [0, $h]")
        if (!java.lang.Double.isFinite(ts)) fail(s"mouse event ts $ts is not finite")
        i += 1
      }
    }
  }

  lazy val decisions: DataFrame = study.decisionsDf(spark)
  lazy val mouse: DataFrame = study.mouseDf(spark)
  lazy val reference: DataFrame = study.referenceDf(spark)
  lazy val warmup: DataFrame = study.warmupDf(spark)

  val matcherIds: Vector[Long] = study.traits.map(_.matcherId)

  private val (studyMeasures, studyFeatures) = StudyHandle.aggregates(historyByMatcher, study)

  /** Main-task measures per matcher (Section II-B); a matcher with an
    * empty sigma has no entry.
    */
  val measures: Map[Long, MatcherMeasures] = studyMeasures

  /** Warm-up measures per matcher, for the Qual. Test / Self-Assess
    * baselines (Section IV-B2).
    */
  lazy val warmupMeasures: Map[Long, MatcherMeasures] =
    Measures.perMatcher(warmupHistories, study.warmupTask.referenceSet,
      study.warmupTask.reference.size)

  /** Phi_LRSM + Phi_Beh + Phi_Mou of every matcher with decisions or mouse
    * events; a matcher missing one stream gets zeros for its features.
    */
  val baseFeatures: FeatureTable = studyFeatures

  /** Down-sampled heat maps per (matcher, event type) of every matcher with
    * mouse events, built by `HeatMap.of` on each call, so a caller holds
    * them only while it needs them.
    */
  def heatMaps: Map[(Long, String), Array[Array[Double]]] = {
    val (mouse, task) = (study.mouse, study.task)
    Par.map(mouse.byMatcher.toVector) { case (id, events) =>
      HeatMap.of(events, task.screenW, task.screenH).map { case (kind, grid) => (id, kind) -> grid }
    }.flatten.toMap
  }

  /** Mean reported confidence per matcher (the Conf baseline's score). */
  lazy val meanConf: Map[Long, Double] =
    historyByMatcher.view.mapValues(Measures.meanConfidence).toMap
}

object StudyHandle {

  /** The main-task measures and the base-feature table of `study`, whose
    * histories are `histories`: one `Par` job per matcher with decisions or
    * mouse events. A job computes its matcher's Eq. 1 entries once, its
    * measures and Phi_LRSM from them, and the rest of its row from its
    * history and its mouse columns. The jobs read only this function's
    * locals.
    */
  private def aggregates(histories: Map[Long, Vector[Decision]], study: StudyData)
      : (Map[Long, MatcherMeasures], FeatureTable) = {
    val task = study.task
    val mouse = study.mouse
    val ids = (histories.keySet ++ mouse.byMatcher.keySet).toVector
    val perMatcher = Par.map(ids) { id =>
      val h = histories.getOrElse(id, Vector.empty)
      val finals = MatrixOps.finalEntries(h)
      val measures = Measures.ofFinal(id, finals, Measures.meanConfidence(h),
        task.referenceSet, task.reference.size)
      val row = Predictors.ofFinal(finals, task.nA, task.nB) ++ BehavioralFeatures.of(h) ++
        MouseFeatures.of(mouse(id))
      (measures, row)
    }
    (perMatcher.flatMap(_._1).map(m => m.matcherId -> m).toMap,
      FeatureTable(Predictors.names ++ BehavioralFeatures.names ++ MouseFeatures.names,
        ids.iterator.zip(perMatcher.iterator.map(_._2)).toMap))
  }

  /** Groups decisions per matcher in `seq` order and checks the history
    * invariants stated on [[StudyHandle]]; the decisions are on `task`, and
    * `what` names the stream in error messages.
    */
  private def histories(ds: Vector[Decision], task: MatchingTask,
                        what: String): Map[Long, Vector[Decision]] = {
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
      h.find(d => d.aIdx < 0 || d.aIdx >= task.nA).foreach { d =>
        fail(s"$what ${d.seq} has aIdx ${d.aIdx} outside [0, ${task.nA})")
      }
      h.find(d => d.bIdx < 0 || d.bIdx >= task.nB).foreach { d =>
        fail(s"$what ${d.seq} has bIdx ${d.bIdx} outside [0, ${task.nB})")
      }
    }
    byMatcher
  }
}
