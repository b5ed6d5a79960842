package repro.core

import repro.{Oracle, SparkSpec}

class MouseFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private def events = Seq(
    MouseEvent(1L, 0.0, 0.0, MouseKinds.Move, 0.0),
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Move, 1.0),   // step 5
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Left, 2.0),   // step 0
    MouseEvent(1L, 6.0, 8.0, MouseKinds.Scroll, 3.0), // step 5
  )

  private def feature(es: Seq[MouseEvent], name: String): Double =
    MouseFeatures.of(es)(MouseFeatures.names.indexOf(name))

  private def row(name: String): Double = feature(events, name)

  test("per-kind counts and total") {
    assert(row("mou_total") === 4.0)
    assert(row("mou_moves") === 2.0)
    assert(row("mou_lefts") === 1.0)
    assert(row("mou_rights") === 0.0)
    assert(row("mou_scrolls") === 1.0)
    assert(math.abs(row("mou_scrollRatio") - 0.25) < 1e-12)
  }

  test("total path length sums Euclidean steps in time order") {
    assert(math.abs(row("mou_totalLength") - 10.0) < 1e-9)
    assert(math.abs(feature(events.reverse, "mou_totalLength") - 10.0) < 1e-9)
  }

  test("position statistics") {
    assert(math.abs(row("mou_avgX") - 3.0) < 1e-12)
    assert(math.abs(row("mou_avgY") - 4.0) < 1e-12)
  }

  test("total time and speed") {
    assert(row("mou_totalTime") === 3.0)
    assert(math.abs(row("mou_avgSpeed") - 10.0 / 4.0) < 1e-9)
  }

  test("a single event gives zero length without nulls") {
    val one = Seq(MouseEvent(9L, 5.0, 5.0, MouseKinds.Move, 1.0))
    assert(feature(one, "mou_totalLength") === 0.0)
    assert(feature(one, "mou_stdX") === 0.0)
  }

  test("features are per matcher") {
    // The kernel sees one matcher's events; the handle applies it per matcher.
    val study = repro.synth.MatcherSim.poStudy(nMatchers = 2, seed = 5L)
    val two = new StudyHandle(spark, study)
    study.mouse.groupBy(_.matcherId).foreach { case (id, es) =>
      assert(two.baseFeatures.vector(id).toSeq.takeRight(MouseFeatures.names.size) ===
        MouseFeatures.of(es).toSeq)
    }
    assert(MouseFeatures.of(Seq.empty).toSeq === Seq.fill(MouseFeatures.names.size)(0.0))
  }

  test("declared names match the produced columns") {
    assert(MouseFeatures.of(events).length === MouseFeatures.names.length)
    assert(MouseFeatures.names.distinct === MouseFeatures.names)
  }

  test("oracle: per-kind counts agree with DuckDB") {
    val all = events ++ Seq(
      MouseEvent(2L, 1.0, 1.0, MouseKinds.Right, 0.5),
      MouseEvent(2L, 2.0, 2.0, MouseKinds.Move, 1.5),
    )
    val kernel = all.groupBy(_.matcherId).toSeq.map { case (id, es) =>
      def f(name: String) = feature(es, name)
      (id.toString, f("mou_moves"), f("mou_lefts"), f("mou_rights"), f("mou_scrolls"),
        f("mou_avgX"))
    }.toDF("matcherid", "moves", "lefts", "rights", "scrolls", "avgx")
    Oracle.assertEquivalent(
      kernel,
      """SELECT matcherId AS matcherid,
        |  CAST(SUM(CASE WHEN kind='move' THEN 1 ELSE 0 END) AS DOUBLE) AS moves,
        |  CAST(SUM(CASE WHEN kind='left' THEN 1 ELSE 0 END) AS DOUBLE) AS lefts,
        |  CAST(SUM(CASE WHEN kind='right' THEN 1 ELSE 0 END) AS DOUBLE) AS rights,
        |  CAST(SUM(CASE WHEN kind='scroll' THEN 1 ELSE 0 END) AS DOUBLE) AS scrolls,
        |  AVG(CAST(x AS DOUBLE)) AS avgx
        |FROM mouse GROUP BY matcherId""".stripMargin,
      "mouse" -> all.toDF(),
    )
  }
}
