package repro.core

/** Movement heat maps G_type: per matcher and event type, a down-sampled
  * screen-occupancy grid where frequently visited cells get higher values
  * (Section II-A2). Grids are max-normalized to [0, 1] before feeding the
  * spatial CNNs.
  */
object HeatMap {
  val GridH = 20
  val GridW = 36

  /** One matcher's grids, one per event kind present in `events`. An event
    * at (x, y) counts in row min(GridH - 1, floor(y / screenH * GridH)) and
    * likewise for the column, so coordinates at the screen edge land in the
    * last cell.
    */
  def of(events: MouseColumns, screenW: Int, screenH: Int): Map[String, Array[Array[Double]]] = {
    def cell(v: Double, extent: Int, cells: Int): Int =
      math.min(cells - 1, math.floor(v / extent * cells).toInt)
    val grids = new Array[Array[Array[Double]]](MouseKinds.All.size)
    var i = 0
    while (i < events.size) {
      val k = events.kind(i)
      if (grids(k) == null) grids(k) = Array.ofDim[Double](GridH, GridW)
      grids(k)(cell(events.y(i), screenH, GridH))(cell(events.x(i), screenW, GridW)) += 1.0
      i += 1
    }
    MouseKinds.All.indices.filter(grids(_) != null).map { k =>
      val grid = grids(k)
      val mx = grid.map(_.max).max
      if (mx > 0) for (row <- grid.indices; c <- grid(row).indices) grid(row)(c) /= mx
      MouseKinds.All(k) -> grid
    }.toMap
  }

  /** Grid for a matcher/kind, all-zero when no such events were recorded. */
  def gridOf(maps: Map[(Long, String), Array[Array[Double]]], id: Long, kind: String)
      : Array[Array[Double]] =
    maps.getOrElse((id, kind), Array.ofDim[Double](GridH, GridW))
}
