package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.synth.MatcherSim

class ExpertFilterSpec extends SparkSpec {
  import spark.implicits._

  private val measures = Map(
    1L -> MatcherMeasures(1L, 0.8, 0.6, 0.5, 0.01, 0.1),
    2L -> MatcherMeasures(2L, 0.4, 0.2, -0.1, 0.5, -0.3),
    3L -> MatcherMeasures(3L, 0.6, 0.4, 0.3, 0.1, 0.2),
  )

  test("measureStats averages P, R, Res and |Cal|") {
    val (p, r, res, cal) = ExpertFilter.measureStats(measures, Seq(1L, 2L))
    assert(math.abs(p - 0.6) < 1e-12)
    assert(math.abs(r - 0.4) < 1e-12)
    assert(math.abs(res - 0.2) < 1e-12)
    assert(math.abs(cal - 0.2) < 1e-12) // (|0.1| + |-0.3|) / 2
  }

  test("measureStats on an empty subset is rejected") {
    intercept[IllegalArgumentException](ExpertFilter.measureStats(measures, Seq.empty))
  }

  private def voteDecisions = Seq(
    Decision(1L, 0, 0, 0, 0.9, 1.0),
    Decision(2L, 0, 0, 0, 0.8, 1.0),
    Decision(3L, 0, 0, 0, 0.7, 1.0),
    Decision(1L, 1, 1, 1, 0.9, 2.0),
    Decision(2L, 1, 2, 2, 0.8, 2.0),
  ).toDF()

  private def pairsOf(fused: DataFrame): Set[(Int, Int)] =
    fused.collect().map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx"))).toSet

  test("fusedMatch keeps pairs reaching the vote threshold") {
    val fused = ExpertFilter.fusedMatch(voteDecisions, Set(1L, 2L, 3L), voteFrac = 0.5)
    assert(pairsOf(fused) === Set((0, 0))) // (1,1) and (2,2) have one vote of three
  }

  test("fusedMatch only counts the selected matchers") {
    val fused = ExpertFilter.fusedMatch(voteDecisions, Set(1L), voteFrac = 0.5)
    assert(pairsOf(fused) === Set((0, 0), (1, 1)))
  }

  test("quorum is voteFrac of a non-empty selection, rounded up, and at least one") {
    assert(ExpertFilter.quorum(0.4, 5) === 2L)
    assert(ExpertFilter.quorum(0.4, 6) === 3L)
    assert(ExpertFilter.quorum(0.0, 5) === 1L)
    assert(ExpertFilter.quorum(2.0, 1) === 2L)
    intercept[IllegalArgumentException](ExpertFilter.fusedMatchOf(Map.empty, Set.empty, 0.4))
    intercept[IllegalArgumentException](ExpertFilter.fusedMatch(voteDecisions, Set.empty, 0.4))
  }

  test("fusedQuality computes precision and recall against the reference") {
    val fused = Seq((0, 0), (5, 5)).toDF("aIdx", "bIdx")
    val ref = Seq(RefPair(0, 0), RefPair(1, 1), RefPair(2, 2), RefPair(3, 3)).toDF()
    val (p, r) = ExpertFilter.fusedQuality(fused, ref, refSize = 4)
    assert(p === 0.5 && r === 0.25)
  }

  /** The fused-count / join-count formula: two runs of the fused plan. */
  private def twoCountQuality(fused: DataFrame, ref: DataFrame, refSize: Long) = {
    val n = fused.count()
    val hit = fused.join(ref, Seq("aIdx", "bIdx")).count()
    (if (n == 0) 0.0 else hit.toDouble / n,
      if (refSize == 0) 0.0 else hit.toDouble / refSize)
  }

  private def assertSameBits(a: (Double, Double), b: (Double, Double)): Unit = {
    import java.lang.Double.doubleToRawLongBits
    assert(doubleToRawLongBits(a._1) === doubleToRawLongBits(b._1), s"$a vs $b")
    assert(doubleToRawLongBits(a._2) === doubleToRawLongBits(b._2), s"$a vs $b")
  }

  test("fusedQuality equals the two-count formula, with join multiplicity") {
    // The reference holds (1,1) twice, so a fused (1,1) is two join rows.
    val ref = Seq(RefPair(0, 0), RefPair(1, 1), RefPair(1, 1), RefPair(3, 3)).toDF()
    val fusions = Seq(
      ExpertFilter.fusedMatch(voteDecisions, Set(1L, 2L, 3L), voteFrac = 0.5),
      ExpertFilter.fusedMatch(voteDecisions, Set(1L), voteFrac = 0.5),
      ExpertFilter.fusedMatch(voteDecisions, Set(2L), voteFrac = 0.5),
      Seq((1, 1), (1, 1), (9, 9)).toDF("aIdx", "bIdx"),
    )
    for (fused <- fusions; refSize <- Seq(0L, 3L, 4L))
      assertSameBits(ExpertFilter.fusedQuality(fused, ref, refSize),
        twoCountQuality(fused, ref, refSize))
  }

  test("fusedQuality of an empty fused match is zero precision and recall") {
    // One selected matcher, two votes needed: nothing survives the vote.
    val fused = ExpertFilter.fusedMatch(voteDecisions, Set(1L), voteFrac = 2.0)
    val ref = Seq(RefPair(0, 0), RefPair(1, 1)).toDF()
    assert(fused.count() === 0)
    val quality = ExpertFilter.fusedQuality(fused, ref, refSize = 2)
    assertSameBits(quality, (0.0, 0.0))
    assertSameBits(quality, twoCountQuality(fused, ref, refSize = 2))
  }

  /** A 12-matcher PO study. */
  private lazy val handle = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 12, seed = 5L))

  test("fusedQuality equals the two-count formula on a simulated study") {
    val refSize = handle.study.task.reference.size.toLong
    for (ids <- Seq(Set(0L, 1L, 2L), handle.measures.keySet); voteFrac <- Seq(0.2, 0.6)) {
      val fused = ExpertFilter.fusedMatch(handle.decisions, ids, voteFrac)
      assertSameBits(ExpertFilter.fusedQuality(fused, handle.reference, refSize),
        twoCountQuality(fused, handle.reference, refSize))
    }
  }

  test("fusedMatchOf equals fusedMatch on a simulated study, edges included") {
    val hs = handle.historyByMatcher
    def assertSameVote(ids: Set[Long], voteFrac: Double): Set[(Int, Int)] = {
      val fused = ExpertFilter.fusedMatchOf(hs, ids, voteFrac)
      assert(fused === pairsOf(ExpertFilter.fusedMatch(handle.decisions, ids, voteFrac)),
        s"selection $ids at vote $voteFrac")
      fused
    }
    val ids = handle.matcherIds
    for (sel <- Seq(ids.toSet, ids.take(3).toSet); voteFrac <- Seq(0.2, 0.6))
      assertSameVote(sel, voteFrac)
    // One selected matcher: the fusion is its own sigma.
    assert(assertSameVote(Set(ids(4)), 0.4) ===
      MatrixOps.finalEntries(hs(ids(4))).filter(_.conf > 0.0).map(d => (d.aIdx, d.bIdx)).toSet)
    // A selected id without decisions still counts toward the quorum: two
    // matchers and a ghost at a full vote need three votes, which no pair has.
    val ghost = 999L
    assert(!hs.contains(ghost))
    assert(assertSameVote(ids.take(2).toSet, 1.0).nonEmpty)
    assert(assertSameVote(ids.take(2).toSet + ghost, 1.0).isEmpty)
    // A quorum above the selection size fuses nothing and scores (0, 0).
    val none = assertSameVote(ids.toSet, 2.0)
    val reference = handle.study.task.reference.map(p => (p.aIdx, p.bIdx))
    assert(none.isEmpty)
    assertSameBits(ExpertFilter.fusedQuality(none, reference, reference.size), (0.0, 0.0))
  }

  /** Section IV-F as it ran on DataFrames: the selections of
    * `Experiments.utilization`, each fused by `fusedMatch` over the
    * handle's decisions and scored against its reference DataFrame.
    */
  private def dataFrameUtilization(po: StudyHandle, cvPred: Map[Long, Array[Boolean]],
                                   thresholds: Thresholds): Vector[Experiments.UtilizationRow] = {
    val allIds = po.matcherIds
    def keep(pred: Map[Long, Array[Boolean]]): Set[Long] =
      allIds.filter(id => pred(id).forall(identity)).toSet
    Vector(
      "no_filter" -> allIds.toSet,
      "Conf" -> keep(Baselines.conf(po.meanConf, allIds, allIds)),
      "Qual. Test" -> keep(Baselines.qualTest(po.warmupMeasures, allIds, thresholds)),
      "Self-Assess" -> keep(Baselines.selfAssess(po.warmupMeasures, allIds)),
      "MExI" -> keep(cvPred),
    ).map { case (name, ids0) =>
      val ids = if (ids0.isEmpty) allIds.toSet else ids0
      val (p, r, res, cal) = ExpertFilter.measureStats(po.measures, ids)
      val (fp, fr) = ExpertFilter.fusedQuality(
        ExpertFilter.fusedMatch(po.decisions, ids, voteFrac = 0.4), po.reference,
        po.study.task.reference.size)
      Experiments.UtilizationRow(name, ids.size, p, r, res, cal, fp, fr)
    }
  }

  test("Section IV-F runs no Spark job and equals the DataFrame vote bit for bit") {
    val rnd = new java.util.Random(11L)
    val cvPred = handle.matcherIds.map(id =>
      id -> Array.fill(Labels.Count)(rnd.nextDouble() < 0.8)).toMap
    val thresholds = Thresholds.fromTrain(handle.measures.values.toSeq)
    val (rows, jobs) = jobsDuring(Experiments.utilization(handle, cvPred, thresholds))
    assert(jobs === 0)
    def bits(r: Experiments.UtilizationRow) = r.productIterator.map {
      case d: Double => java.lang.Double.doubleToRawLongBits(d)
      case x => x
    }.toVector
    val expected = dataFrameUtilization(handle, cvPred, thresholds)
    assert(rows.map(_.method) === expected.map(_.method))
    rows.zip(expected).foreach { case (r, e) => assert(bits(r) === bits(e), s"$r vs $e") }
    val mexi = rows.find(_.method == "MExI").get
    assert(mexi.n > 1 && mexi.n < handle.matcherIds.size, "MExI selects a proper subset")
  }

  test("oracle: vote aggregation agrees with DuckDB") {
    val d = voteDecisions.cache()
    val sparkDf = ExpertFilter.fusedMatch(d, Set(1L, 2L, 3L), 0.5)
      .select(col("aIdx").cast("string").as("aidx"),
        col("bIdx").cast("string").as("bidx"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT aIdx AS aidx, bIdx AS bidx FROM (
        |  SELECT aIdx, bIdx, COUNT(DISTINCT matcherId) votes
        |  FROM (SELECT *, ROW_NUMBER() OVER (
        |          PARTITION BY matcherId, aIdx, bIdx
        |          ORDER BY CAST(ts AS DOUBLE) DESC) rn FROM decisions)
        |  WHERE rn = 1 AND CAST(conf AS DOUBLE) > 0
        |  GROUP BY aIdx, bIdx)
        |WHERE votes >= 2""".stripMargin,
      "decisions" -> d,
    )
  }

  test("truncateStudy keeps the first k decisions and trims the mouse") {
    val study = MatcherSim.poStudy(nMatchers = 4, seed = 3L)
    val cut = ExpertFilter.truncateStudy(study, k = 10)
    val byM = cut.decisions.groupBy(_.matcherId)
    byM.values.foreach(h => assert(h.size <= 10))
    // No mouse event after a matcher's 10th decision.
    val cutoff = byM.view.mapValues(_.map(_.ts).max).toMap
    cut.mouse.events.foreach(e => assert(e.ts <= cutoff(e.matcherId) + 1e-9))
    // Each matcher keeps exactly its events up to the cutoff, in order.
    assert(cut.mouse.events.toVector ===
      study.mouse.events.filter(e => e.ts <= cutoff(e.matcherId)).toVector)
    assert(cut.mouse.size < study.mouse.size)
    // Traits and tasks are preserved.
    assert(cut.task === study.task)
    assert(cut.traits === study.traits)
  }

  test("truncateStudy leaves short histories untouched") {
    val study = MatcherSim.poStudy(nMatchers = 2, seed = 4L)
    val n = study.decisions.count(_.matcherId == 0L)
    val cut = ExpertFilter.truncateStudy(study, k = 1000)
    assert(cut.decisions.count(_.matcherId == 0L) === n)
  }
}
