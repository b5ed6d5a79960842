package repro.core

import org.apache.spark.sql.{DataFrame, Encoder}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import repro.SparkSpec
import repro.synth.{MatcherSim, StudyData}

class StudyHandleSpec extends SparkSpec {

  private lazy val study = MatcherSim.poStudy(nMatchers = 12, seed = 21L)
  private lazy val handle = new StudyHandle(spark, study)

  test("measures cover every matcher") {
    assert(handle.measures.keySet === handle.matcherIds.toSet)
    handle.measures.values.foreach { m =>
      assert(m.precision >= 0.0 && m.precision <= 1.0)
      assert(m.recall >= 0.0 && m.recall <= 1.0)
      assert(m.resolution >= -1.0 && m.resolution <= 1.0)
    }
  }

  test("warm-up measures cover every matcher") {
    assert(handle.warmupMeasures.keySet === handle.matcherIds.toSet)
  }

  test("base features cover every matcher with all three aggregate sets") {
    val t = handle.baseFeatures
    assert(t.rows.keySet === handle.matcherIds.toSet)
    assert(t.names ===
      Predictors.names ++ BehavioralFeatures.names ++ MouseFeatures.names)
    t.rows.values.foreach(v => assert(v.forall(x => !x.isNaN && !x.isInfinity)))
  }

  test("histories are sorted by decision order") {
    handle.historyByMatcher.values.foreach { h =>
      assert(h.map(_.seq) === (0 until h.size))
    }
  }

  test("heat maps exist for every matcher's move events") {
    handle.matcherIds.foreach { id =>
      assert(handle.heatMaps.contains((id, MouseKinds.Move)))
    }
  }

  test("heat maps equal HeatMap.of over each matcher's events") {
    val expected = for {
      (id, events) <- study.mouse.groupBy(_.matcherId)
      (kind, grid) <- HeatMap.of(events, study.task.screenW, study.task.screenH)
    } yield (id, kind) -> grid.toSeq.map(_.toSeq)
    assert(handle.heatMaps.view.mapValues(_.toSeq.map(_.toSeq)).toMap === expected)
  }

  test("mean confidence agrees with the driver-side computation") {
    val byM = study.decisions.groupBy(_.matcherId)
    handle.matcherIds.foreach { id =>
      val exp = byM(id).map(_.conf).sum / byM(id).size
      assert(math.abs(handle.meanConf(id) - exp) < 1e-9)
    }
  }

  test("measures match a driver-side recomputation of P") {
    val byM = study.decisions.groupBy(_.matcherId)
    handle.matcherIds.foreach { id =>
      val finals = byM(id).groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts))
      val p = finals.count(d =>
        study.task.referenceSet.contains(RefPair(d.aIdx, d.bIdx))).toDouble / finals.size
      assert(math.abs(handle.measures(id).precision - p) < 1e-9)
    }
  }

  test("DataFrames are views with the rows and schema of Seq.toDF()") {
    import spark.implicits._
    def check[T: Encoder](name: String, df: DataFrame, rows: Seq[T]): Unit = {
      assert(df.schema === rows.toDF().schema, name)
      assert(df.as[T].collect().toSeq === rows, name)
      // A LocalRelation would hold a copy of every row.
      assert(df.queryExecution.logical.collect { case r: LocalRelation => r }.isEmpty, name)
    }
    check("decisions", handle.decisions, study.decisions)
    check("mouse", handle.mouse, study.mouse)
    check("warmup", handle.warmup, study.warmupDecisions)
    check("reference", handle.reference, study.task.reference)
  }

  // --- input invariants, checked once when the handle is built ---

  private def rejects(bad: StudyData, msg: String): Unit = {
    val e = intercept[IllegalArgumentException](new StudyHandle(spark, bad))
    assert(e.getMessage.contains(msg), e.getMessage)
  }

  private def firstMatcher(f: Decision => Decision): StudyData = {
    val id = study.decisions.head.matcherId
    study.copy(decisions = study.decisions.map(d => if (d.matcherId == id) f(d) else d))
  }

  test("a history whose seq does not run 0..n-1 is rejected") {
    rejects(firstMatcher(d => d.copy(seq = d.seq + 1)), "seq must run 0..")
  }

  test("a history whose ts decreases in seq order is rejected") {
    rejects(firstMatcher(d => d.copy(ts = -d.ts)), "before ts")
  }

  test("a confidence outside [0, 1] is rejected") {
    rejects(firstMatcher(d => if (d.seq == 2) d.copy(conf = 1.5) else d), "outside [0, 1]")
  }

  test("a mouse event of an unknown kind is rejected") {
    rejects(study.copy(mouse = study.mouse.updated(3, study.mouse(3).copy(kind = "drag"))),
      "unknown mouse event kind 'drag'")
  }

  private def mouseAt(i: Int)(f: MouseEvent => MouseEvent): StudyData =
    study.copy(mouse = study.mouse.updated(i, f(study.mouse(i))))

  test("a mouse x outside [0, screenW] is rejected") {
    rejects(mouseAt(3)(_.copy(x = -1.0)), "mouse event x -1.0 outside [0, 1280]")
    rejects(mouseAt(3)(_.copy(x = study.task.screenW + 0.5)), "outside [0, 1280]")
  }

  test("a mouse y outside [0, screenH], or NaN, is rejected") {
    rejects(mouseAt(5)(_.copy(y = Double.NaN)), "mouse event y NaN outside [0, 720]")
    rejects(mouseAt(5)(_.copy(y = study.task.screenH + 1.0)), "outside [0, 720]")
  }

  test("the screen edges are accepted") {
    val w = study.task.screenW.toDouble; val h = study.task.screenH.toDouble
    new StudyHandle(spark, mouseAt(2)(_.copy(x = 0.0, y = h)))
    new StudyHandle(spark, mouseAt(2)(_.copy(x = w, y = 0.0)))
  }

  test("a mouse event ts that is not finite is rejected") {
    rejects(mouseAt(7)(_.copy(ts = Double.NaN)), "mouse event ts NaN is not finite")
  }

  test("a decision ts that is not finite is rejected") {
    rejects(firstMatcher(d => if (d.seq == 2) d.copy(ts = Double.NaN) else d),
      "decision 2 has ts NaN, which is not finite")
    rejects(firstMatcher(d => if (d.seq == 0) d.copy(ts = Double.NegativeInfinity) else d),
      "not finite")
  }

  test("a warm-up decision ts that is not finite is rejected") {
    val id = study.warmupDecisions.head.matcherId
    rejects(study.copy(warmupDecisions = study.warmupDecisions.map(d =>
      if (d.matcherId == id && d.seq == 1) d.copy(ts = Double.PositiveInfinity) else d)),
      "warm-up decision 1 has ts Infinity, which is not finite")
  }
}
