package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.{Oracle, SparkSpec}
import repro.ml.Stats

class MouseFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private def events = Seq(
    MouseEvent(1L, 0.0, 0.0, MouseKinds.Move, 0.0),
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Move, 1.0),   // step 5
    MouseEvent(1L, 3.0, 4.0, MouseKinds.Left, 2.0),   // step 0
    MouseEvent(1L, 6.0, 8.0, MouseKinds.Scroll, 3.0), // step 5
  )

  private def feature(es: Seq[MouseEvent], name: String): Double =
    MouseFeatures.of(TestMouse.columns(es))(MouseFeatures.names.indexOf(name))

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
    study.mouse.byMatcher.foreach { case (id, es) =>
      assert(two.baseFeatures.vector(id).toSeq.takeRight(MouseFeatures.names.size) ===
        MouseFeatures.of(es).toSeq)
    }
    assert(MouseFeatures.of(MouseColumns.empty).toSeq ===
      Seq.fill(MouseFeatures.names.size)(0.0))
  }

  test("declared names match the produced columns") {
    assert(MouseFeatures.of(TestMouse.columns(events)).length === MouseFeatures.names.length)
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

  // --- the columnar kernel against the kernel over MouseEvent rows ---

  /** The kernel as it was over `MouseEvent` rows, sorting (ts, x, y) tuples. */
  private def rowKernel(events: Seq[MouseEvent]): Array[Double] = {
    if (events.isEmpty) return new Array[Double](MouseFeatures.names.length)
    import Ordering.Double.TotalOrdering
    val es = events.sortBy(e => (e.ts, e.x, e.y)).toIndexedSeq
    val n = es.size.toDouble
    def count(kind: String): Double = es.count(_.kind == kind).toDouble
    val length = (1 until es.size).foldLeft(0.0) { (sum, i) =>
      val dx = es(i).x - es(i - 1).x
      val dy = es(i).y - es(i - 1).y
      sum + math.sqrt(dx * dx + dy * dy)
    }
    val xs = es.map(_.x)
    val ys = es.map(_.y)
    val time = es.last.ts - es.head.ts
    Array(
      n, count(MouseKinds.Move), count(MouseKinds.Left), count(MouseKinds.Right),
      count(MouseKinds.Scroll), count(MouseKinds.Scroll) / n,
      length, xs.foldLeft(0.0)(_ + _) / n, ys.foldLeft(0.0)(_ + _) / n,
      Stats.onlineStddev(xs), Stats.onlineStddev(ys),
      time, length / (time + 1.0),
    )
  }

  /** Events on a 360x200 screen whose ts, x and y are drawn from small
    * pools, so ties in ts, in (ts, x) and in all three are common; the
    * pools hold both screen edges and -0.0.
    */
  private val genEvents: Gen[Vector[MouseEvent]] = for {
    n <- Gen.choose(0, 60)
    es <- Gen.listOfN(n, for {
      ts <- Gen.oneOf(Gen.oneOf(0.0, 1.0, 1.5, 2.0), Gen.choose(0.0, 50.0))
      x <- Gen.oneOf(Gen.oneOf(0.0, -0.0, 360.0, 7.0), Gen.choose(0.0, 360.0))
      y <- Gen.oneOf(Gen.oneOf(0.0, 200.0, 3.0), Gen.choose(0.0, 200.0))
      kind <- Gen.oneOf(MouseKinds.All)
    } yield MouseEvent(1L, x, y, kind, ts))
  } yield es.toVector

  private def bits(xs: Array[Double]): Seq[Long] =
    xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("the columnar kernel equals the row kernel bit for bit, ties and edges included") {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20261019L))
    val res = Test.check(params, Prop.forAll(genEvents) { es =>
      bits(MouseFeatures.of(TestMouse.columns(es))) == bits(rowKernel(es))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("the columnar kernel equals the row kernel on every matcher of a study") {
    val study = repro.synth.MatcherSim.poStudy(nMatchers = 12, seed = 6L)
    study.mouse.byMatcher.foreach { case (id, es) =>
      assert(bits(MouseFeatures.of(es)) === bits(rowKernel(es.events(id).toVector)), s"matcher $id")
    }
  }
}
