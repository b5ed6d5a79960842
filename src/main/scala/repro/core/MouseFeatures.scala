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
    * Events are taken in (ts, x, y) order whatever the order of `events`:
    * path length is the sum of Euclidean steps between consecutive events,
    * and standard deviations are sample ones, 0 below two events.
    */
  def of(events: Seq[MouseEvent]): Array[Double] = {
    if (events.isEmpty) return new Array[Double](names.length)
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
}
