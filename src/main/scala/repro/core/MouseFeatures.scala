package repro.core

import repro.ml.Stats

/** Phi_Mou: aggregated movement features over the mouse map G, following
  * the crowd-behavior literature the paper cites (Rzeszotarski & Kittur;
  * Goyal et al.): path length, per-event-type counts, screen-position
  * statistics and speed — a pure kernel over one matcher's events.
  */
object MouseFeatures {

  val names: Vector[String] = Vector(
    "mou_total", "mou_moves", "mou_lefts", "mou_rights", "mou_scrolls",
    "mou_scrollRatio", "mou_totalLength", "mou_avgX", "mou_avgY",
    "mou_stdX", "mou_stdY", "mou_totalTime", "mou_avgSpeed",
  )

  /** The features of one matcher's events; all zeros when there are none.
    * Events are taken in (ts, x, y) order under `java.lang.Double.compare`
    * whatever their recorded order: path length is the sum of Euclidean
    * steps between consecutive events, and standard deviations are sample
    * ones, 0 below two events.
    */
  def of(events: MouseColumns): Array[Double] = {
    val m = events.size
    if (m == 0) return new Array[Double](names.length)
    import java.lang.Double.compare
    val order = MouseColumns.stableOrder(m) { (a, b) =>
      val byTs = compare(events.ts(a), events.ts(b))
      if (byTs != 0) byTs
      else {
        val byX = compare(events.x(a), events.x(b))
        if (byX != 0) byX else compare(events.y(a), events.y(b))
      }
    }
    val sorted = events.select(order)
    val xs = sorted.x
    val ys = sorted.y
    val n = m.toDouble
    val counts = new Array[Int](MouseKinds.All.size)
    var length = 0.0; var sumX = 0.0; var sumY = 0.0
    var i = 0
    while (i < m) {
      counts(sorted.kind(i)) += 1
      if (i > 0) {
        val dx = xs(i) - xs(i - 1)
        val dy = ys(i) - ys(i - 1)
        length += math.sqrt(dx * dx + dy * dy)
      }
      sumX += xs(i); sumY += ys(i)
      i += 1
    }
    def count(kind: Byte): Double = counts(kind).toDouble
    val time = sorted.ts(m - 1) - sorted.ts(0)
    Array(
      n, count(MouseKinds.MoveIdx), count(MouseKinds.LeftIdx), count(MouseKinds.RightIdx),
      count(MouseKinds.ScrollIdx), count(MouseKinds.ScrollIdx) / n,
      length, sumX / n, sumY / n,
      Stats.onlineStddev(xs), Stats.onlineStddev(ys),
      time, length / (time + 1.0),
    )
  }
}
