package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HeatMapSpec extends AnyFunSuite {

  test("events land in the right grid cell") {
    // Screen 360x200; grid 36x20 -> cells of 10x10 pixels.
    val es = Seq(
      MouseEvent(1L, 5.0, 5.0, MouseKinds.Move, 0.0),     // cell (0, 0)
      MouseEvent(1L, 355.0, 195.0, MouseKinds.Move, 1.0), // cell (19, 35)
    )
    val maps = HeatMap.of(es, screenW = 360, screenH = 200)
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
    val g = HeatMap.of(es, 360, 200)(MouseKinds.Move)
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
    val maps = HeatMap.of(es, 360, 200)
    assert(maps.keySet === Set(MouseKinds.Move, MouseKinds.Scroll))
    assert(maps(MouseKinds.Move).flatten.sum === 1.0)
  }

  test("coordinates at the screen edge are clamped into the last cell") {
    val es = Seq(MouseEvent(1L, 360.0, 200.0, MouseKinds.Move, 0.0))
    val g = HeatMap.of(es, 360, 200)(MouseKinds.Move)
    assert(g(HeatMap.GridH - 1)(HeatMap.GridW - 1) === 1.0)
  }

  test("gridOf returns an all-zero grid for missing matcher/kind") {
    val g = HeatMap.gridOf(Map.empty, 99L, MouseKinds.Left)
    assert(g.length === HeatMap.GridH && g.head.length === HeatMap.GridW)
    assert(g.flatten.forall(_ === 0.0))
  }

  test("a sparse grid rebuilds the dense grid bit for bit") {
    val rnd = new java.util.Random(4)
    val es = (0 until 300).map(i => MouseEvent(1L, rnd.nextDouble() * 360,
      rnd.nextDouble() * rnd.nextDouble() * 200, MouseKinds.Move, i.toDouble))
    val g = HeatMap.of(es, 360, 200)(MouseKinds.Move)
    assert(g.flatten.count(_ == 0.0) > 0)
    def bits(grid: Array[Array[Double]]) = grid.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))
    assert(bits(HeatMap.Sparse(g).dense) === bits(g))
    assert(bits(HeatMap.Sparse(Array.ofDim[Double](HeatMap.GridH, HeatMap.GridW)).dense) ===
      bits(Array.ofDim[Double](HeatMap.GridH, HeatMap.GridW)))
  }
}
