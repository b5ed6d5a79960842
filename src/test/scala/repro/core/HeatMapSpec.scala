package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class HeatMapSpec extends AnyFunSuite {
  import TestMouse.columns

  test("events land in the right grid cell") {
    // Screen 360x200; grid 36x20 -> cells of 10x10 pixels.
    val es = Seq(
      MouseEvent(1L, 5.0, 5.0, MouseKinds.Move, 0.0),     // cell (0, 0)
      MouseEvent(1L, 355.0, 195.0, MouseKinds.Move, 1.0), // cell (19, 35)
    )
    val maps = HeatMap.of(columns(es), screenW = 360, screenH = 200)
    val g = maps(MouseKinds.Move)
    assert(g(0)(0) > 0.0)
    assert(g(HeatMap.GridH - 1)(HeatMap.GridW - 1) > 0.0)
  }

  test("grids are max-normalized to [0, 1]") {
    val es = Seq(
      MouseEvent(1L, 5.0, 5.0, MouseKinds.Move, 0.0),
      MouseEvent(1L, 5.0, 5.0, MouseKinds.Move, 1.0),
      MouseEvent(1L, 100.0, 100.0, MouseKinds.Move, 2.0),
    )
    val g = HeatMap.of(columns(es), 360, 200)(MouseKinds.Move)
    assert(g(0)(0) === 1.0)
    assert(g.flatten.count(_ > 0.0) === 2)
    assert(g.flatten.forall(v => v >= 0.0 && v <= 1.0))
    assert(g.flatten.filter(v => v > 0 && v < 1.0).head === 0.5)
  }

  test("event kinds build separate maps") {
    val es = Seq(
      MouseEvent(1L, 5.0, 5.0, MouseKinds.Move, 0.0),
      MouseEvent(1L, 300.0, 150.0, MouseKinds.Scroll, 1.0),
    )
    val maps = HeatMap.of(columns(es), 360, 200)
    assert(maps.keySet === Set(MouseKinds.Move, MouseKinds.Scroll))
    assert(maps(MouseKinds.Move).flatten.sum === 1.0)
  }

  test("coordinates at the screen edge are clamped into the last cell") {
    val es = Seq(MouseEvent(1L, 360.0, 200.0, MouseKinds.Move, 0.0))
    val g = HeatMap.of(columns(es), 360, 200)(MouseKinds.Move)
    assert(g(HeatMap.GridH - 1)(HeatMap.GridW - 1) === 1.0)
  }

  test("gridOf returns an all-zero grid for missing matcher/kind") {
    val g = HeatMap.gridOf(Map.empty, 99L, MouseKinds.Left)
    assert(g.length === HeatMap.GridH && g.head.length === HeatMap.GridW)
    assert(g.flatten.forall(_ === 0.0))
  }

  // --- the columnar kernel against the kernel over MouseEvent rows ---

  /** The kernel as it was over `MouseEvent` rows, grouping them by kind. */
  private def rowKernel(events: Seq[MouseEvent], screenW: Int, screenH: Int)
      : Map[String, Array[Array[Double]]] = {
    def cell(v: Double, extent: Int, cells: Int): Int =
      math.min(cells - 1, math.floor(v / extent * cells).toInt)
    events.groupBy(_.kind).view.mapValues { es =>
      val grid = Array.ofDim[Double](HeatMap.GridH, HeatMap.GridW)
      es.foreach(e => grid(cell(e.y, screenH, HeatMap.GridH))(cell(e.x, screenW, HeatMap.GridW)) += 1.0)
      val mx = grid.map(_.max).max
      if (mx > 0) for (row <- grid.indices; c <- grid(row).indices) grid(row)(c) /= mx
      grid
    }.toMap
  }

  private def bits(maps: Map[String, Array[Array[Double]]]): Map[String, Seq[Long]] =
    maps.view.mapValues(_.toSeq.flatten.map(java.lang.Double.doubleToRawLongBits)).toMap

  test("the columnar kernel equals the row kernel bit for bit, edges and ties included") {
    // Coordinates come from pools holding both screen edges, -0.0 and
    // cell boundaries, so events share cells and land on the last cell.
    val genEvents = for {
      n <- Gen.choose(0, 80)
      es <- Gen.listOfN(n, for {
        x <- Gen.oneOf(Gen.oneOf(0.0, -0.0, 10.0, 359.999, 360.0), Gen.choose(0.0, 360.0))
        y <- Gen.oneOf(Gen.oneOf(0.0, 10.0, 199.5, 200.0), Gen.choose(0.0, 200.0))
        kind <- Gen.oneOf(MouseKinds.All)
        ts <- Gen.oneOf(0.0, 1.0, 2.0)
      } yield MouseEvent(1L, x, y, kind, ts))
    } yield es.toVector
    val params = Test.Parameters.default
      .withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20261019L))
    val res = Test.check(params, Prop.forAll(genEvents) { es =>
      bits(HeatMap.of(columns(es), 360, 200)) == bits(rowKernel(es, 360, 200))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("the columnar kernel equals the row kernel on every matcher of a study") {
    val study = repro.synth.MatcherSim.poStudy(nMatchers = 12, seed = 6L)
    val (w, h) = (study.task.screenW, study.task.screenH)
    study.mouse.byMatcher.foreach { case (id, es) =>
      assert(bits(HeatMap.of(es, w, h)) === bits(rowKernel(es.events(id).toVector, w, h)),
        s"matcher $id")
    }
  }
}
