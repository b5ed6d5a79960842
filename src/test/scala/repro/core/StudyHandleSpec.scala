package repro.core

import org.apache.spark.sql.{DataFrame, Encoder}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
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
      (id, events) <- study.mouse.byMatcher
      (kind, grid) <- HeatMap.of(events, study.task.screenW, study.task.screenH)
    } yield (id, kind) -> grid.toSeq.map(_.toSeq)
    assert(handle.heatMaps.view.mapValues(_.toSeq.map(_.toSeq)).toMap === expected)
  }

  // --- the constructor's base-feature pass and the per-call heat maps,
  // --- each one Par job per matcher, against a sequential pass ---

  private lazy val study30 = MatcherSim.poStudy(nMatchers = 30, seed = 23L)

  private def bits(xs: Iterable[Double]): Vector[Long] =
    xs.iterator.map(java.lang.Double.doubleToRawLongBits).toVector

  /** Each matcher's base-feature row and grids, one matcher at a time. */
  private def sequential(s: StudyData)
      : (Map[Long, Vector[Long]], Map[(Long, String), Vector[Long]]) = {
    val hs = s.decisions.groupBy(_.matcherId).view.mapValues(_.sortBy(_.seq)).toMap
    val ms = s.mouse.byMatcher
    val rows = (hs.keySet ++ ms.keySet).map { id =>
      val h = hs.getOrElse(id, Vector.empty)
      id -> bits(Predictors.of(h, s.task.nA, s.task.nB) ++ BehavioralFeatures.of(h) ++
        MouseFeatures.of(s.mouse(id)))
    }.toMap
    val maps = for {
      (id, events) <- ms
      (kind, grid) <- HeatMap.of(events, s.task.screenW, s.task.screenH)
    } yield (id, kind) -> bits(grid.flatten)
    (rows, maps)
  }

  private def tables(h: StudyHandle)
      : (Map[Long, Vector[Long]], Map[(Long, String), Vector[Long]]) =
    (h.baseFeatures.rows.view.mapValues(bits(_)).toMap,
      h.heatMaps.view.mapValues(g => bits(g.flatten)).toMap)

  test("base features and heat maps equal a sequential per-matcher pass bit for bit") {
    assert(tables(new StudyHandle(spark, study30)) === sequential(study30))
  }

  test("a matcher with decisions but no mouse events gets zero Phi_Mou and no heat maps") {
    val id = study30.traits(4).matcherId
    val s = study30.copy(mouse = MouseStream.of(study30.mouse.byMatcher - id))
    val h = new StudyHandle(spark, s)
    val row = h.baseFeatures.vector(id)
    val nMou = MouseFeatures.names.length
    assert(bits(row.takeRight(nMou)) === bits(new Array[Double](nMou)))
    assert(row.take(Predictors.names.length).exists(_ != 0.0))
    assert(!h.heatMaps.keySet.exists(_._1 == id))
    assert(tables(h) === sequential(s))
  }

  test("a handle built inside a Par job gives the same tables") {
    val inside = Par.map(Seq(1, 2))(_ => tables(new StudyHandle(spark, study30)))
    assert(inside.forall(_ == sequential(study30)))
  }

  test("heat maps read inside Par jobs, a nested Par call, equal the outer call") {
    val h = new StudyHandle(spark, study30)
    val outer = tables(h)._2
    val inside = Par.map(1 to 3)(_ => tables(h)._2)
    assert(inside.forall(_ == outer))
  }

  test("two heatMaps calls give bitwise-equal grids that share no array") {
    val h = new StudyHandle(spark, study30)
    val (a, b) = (h.heatMaps, h.heatMaps)
    assert(a.view.mapValues(g => bits(g.flatten)).toMap ===
      b.view.mapValues(g => bits(g.flatten)).toMap)
    def arrays(m: Map[(Long, String), Array[Array[Double]]]): Iterator[AnyRef] =
      m.valuesIterator.flatMap(g => Iterator.single(g) ++ g.iterator)
    val seen = java.util.Collections.newSetFromMap(
      new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    arrays(a).foreach(seen.add)
    assert(seen.size === a.size * (HeatMap.GridH + 1))
    assert(!arrays(b).exists(seen.contains))
  }

  private def measureBits(m: MatcherMeasures): Vector[Any] = m.productIterator.map {
    case x: Double => java.lang.Double.doubleToRawLongBits(x)
    case x => x
  }.toVector

  test("measures and base features equal Measures.of and a sequential per-matcher pass " +
      "bit for bit on a 500-matcher study") {
    val s = MatcherSim.poStudy(nMatchers = 500)
    val hs = s.decisions.groupBy(_.matcherId).view.mapValues(_.sortBy(_.seq)).toMap
    val expected = hs.flatMap { case (id, h) =>
      Measures.of(id, h, s.task.referenceSet, s.task.reference.size).map(id -> measureBits(_))
    }
    val h = new StudyHandle(spark, s)
    assert(expected.size === 500)
    assert(h.measures.view.mapValues(measureBits).toMap === expected)
    assert(tables(h)._1 === sequential(s)._1)
  }

  test("building a handle and reading its per-matcher aggregates submits no Spark job") {
    val (_, jobs) = jobsDuring {
      val h = new StudyHandle(spark, study30)
      (h.measures, h.baseFeatures, h.heatMaps, h.warmupMeasures, h.meanConf)
    }
    assert(jobs === 0)
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
    check("mouse", handle.mouse, study.mouse.events.toSeq)
    check("warmup", handle.warmup, study.warmupDecisions)
    check("reference", handle.reference, study.task.reference)
  }

  test("no DataFrame is in Spark's cache") {
    val cache = spark.sharedState.cacheManager
    Seq("decisions" -> handle.decisions, "mouse" -> handle.mouse,
      "warmup" -> handle.warmup, "reference" -> handle.reference).foreach { case (name, df) =>
      assert(cache.lookupCachedData(castToImpl(df)).isEmpty, name)
    }
  }

  test("the mouse view has the schema of Seq[MouseEvent].toDF()") {
    import spark.implicits._
    assert(handle.mouse.schema === Seq.empty[MouseEvent].toDF().schema)
    assert(handle.mouse.count() === study.mouse.size)
  }

  // --- input invariants, checked once when the handle is built ---

  /** `bad` is built inside the check: an unknown event kind is rejected
    * where the events enter the columns.
    */
  private def rejects(bad: => StudyData, msg: String): Unit = {
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

  test("a decision outside the task's nA x nB grid is rejected; its edges are accepted") {
    val (nA, nB) = (study.task.nA, study.task.nB)
    rejects(firstMatcher(d => if (d.seq == 1) d.copy(aIdx = -1) else d),
      s"decision 1 has aIdx -1 outside [0, $nA)")
    rejects(firstMatcher(d => if (d.seq == 1) d.copy(aIdx = nA) else d),
      s"decision 1 has aIdx $nA outside [0, $nA)")
    rejects(firstMatcher(d => if (d.seq == 3) d.copy(bIdx = -1) else d),
      s"decision 3 has bIdx -1 outside [0, $nB)")
    rejects(firstMatcher(d => if (d.seq == 3) d.copy(bIdx = nB) else d),
      s"decision 3 has bIdx $nB outside [0, $nB)")
    new StudyHandle(spark, firstMatcher(d => d.copy(aIdx = 0, bIdx = nB - 1)))
    new StudyHandle(spark, firstMatcher(d => d.copy(aIdx = nA - 1, bIdx = 0)))
  }

  test("a warm-up decision outside the warm-up task's grid is rejected; its edges are accepted") {
    val (nA, nB) = (study.warmupTask.nA, study.warmupTask.nB)
    assert(nA < study.task.nA && nB < study.task.nB)
    val id = study.warmupDecisions.head.matcherId
    def warmup(f: Decision => Decision): StudyData =
      study.copy(warmupDecisions = study.warmupDecisions.map(d => if (d.matcherId == id) f(d) else d))
    rejects(warmup(d => if (d.seq == 1) d.copy(aIdx = -1) else d),
      s"warm-up decision 1 has aIdx -1 outside [0, $nA)")
    rejects(warmup(d => if (d.seq == 1) d.copy(aIdx = nA) else d),
      s"warm-up decision 1 has aIdx $nA outside [0, $nA)")
    rejects(warmup(d => if (d.seq == 2) d.copy(bIdx = -1) else d),
      s"warm-up decision 2 has bIdx -1 outside [0, $nB)")
    rejects(warmup(d => if (d.seq == 2) d.copy(bIdx = nB) else d),
      s"warm-up decision 2 has bIdx $nB outside [0, $nB)")
    new StudyHandle(spark, warmup(d => d.copy(aIdx = 0, bIdx = nB - 1)))
    new StudyHandle(spark, warmup(d => d.copy(aIdx = nA - 1, bIdx = 0)))
  }

  test("a history whose ts decreases in seq order is rejected") {
    rejects(firstMatcher(d => d.copy(ts = -d.ts)), "before ts")
  }

  test("a confidence outside [0, 1] is rejected") {
    rejects(firstMatcher(d => if (d.seq == 2) d.copy(conf = 1.5) else d), "outside [0, 1]")
  }

  private lazy val events = study.mouse.events.toVector

  private def mouseAt(i: Int)(f: MouseEvent => MouseEvent): StudyData =
    study.copy(mouse = MouseStream.fromEvents(events.updated(i, f(events(i)))))

  test("a mouse event of an unknown kind is rejected") {
    rejects(mouseAt(3)(_.copy(kind = "drag")), "unknown mouse event kind 'drag'")
  }

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
