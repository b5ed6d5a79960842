package repro.core

import scala.collection.immutable.VectorMap

/** Row types shared across the MExI pipeline.
  *
  * A human matcher is observed through two streams (Section II-A of the
  * paper): a decision history H — triplets ((a_i, b_j), confidence, time) —
  * and a movement map G — triplets ((x, y), event type, time). Both are
  * keyed by `matcherId`, as Spark DataFrames and as in-memory histories;
  * sub-matchers (training-time augmentation windows) reuse the decision
  * rows under a synthetic id.
  */
final case class Decision(
    matcherId: Long,
    seq: Int,       // 0-based decision index within the matcher's history
    aIdx: Int,      // element index in schema S
    bIdx: Int,      // element index in schema S'
    conf: Double,   // reported confidence in [0, 1]
    ts: Double,     // seconds since task start
)

/** One mouse event of the movement map G: the row type of the mouse
  * DataFrame view and the input form of [[MouseStream.fromEvents]]. The
  * study itself keeps its events as [[MouseColumns]].
  */
final case class MouseEvent(
    matcherId: Long,
    x: Double,
    y: Double,
    kind: String,   // one of MouseKinds
    ts: Double,
)

/** One matcher's mouse events as primitive columns, in recorded order:
  * event i is at (x(i), y(i)) at time ts(i), and its type is
  * `MouseKinds.All(kind(i))`. That is 25 B per event, where a
  * [[MouseEvent]] object takes 48 B plus its slot in a vector. Nothing
  * writes the arrays once the columns are built; truncation and selection
  * copy.
  */
final class MouseColumns(
    val x: Array[Double],
    val y: Array[Double],
    val kind: Array[Byte],
    val ts: Array[Double],
) extends Serializable {
  require(y.length == x.length && kind.length == x.length && ts.length == x.length,
    s"mouse columns of unequal lengths ${x.length}, ${y.length}, ${kind.length}, ${ts.length}")
  locally {
    var i = 0
    while (i < kind.length) {
      val k = kind(i)
      // Not `require`: its by-name message would allocate a closure per event.
      if (k < 0 || k >= MouseKinds.All.size)
        throw new IllegalArgumentException(s"mouse event kind index $k outside MouseKinds.All")
      i += 1
    }
  }

  def size: Int = ts.length

  /** The events as rows of matcher `id`, in recorded order, built as they
    * are read.
    */
  def events(id: Long): Iterator[MouseEvent] =
    Iterator.range(0, size).map(i => MouseEvent(id, x(i), y(i), MouseKinds.All(kind(i)), ts(i)))

  /** The events at `idx`, in that order. */
  def select(idx: Array[Int]): MouseColumns = {
    val n = idx.length
    val sx, sy, st = new Array[Double](n)
    val sk = new Array[Byte](n)
    var i = 0
    while (i < n) {
      val j = idx(i)
      sx(i) = x(j); sy(i) = y(j); sk(i) = kind(j); st(i) = ts(j)
      i += 1
    }
    new MouseColumns(sx, sy, sk, st)
  }

  /** The events with `ts <= cutoff`, in recorded order; these columns
    * themselves when every event qualifies.
    */
  def upTo(cutoff: Double): MouseColumns = {
    val keep = Array.range(0, size).filter(ts(_) <= cutoff)
    if (keep.length == size) this else select(keep)
  }
}

object MouseColumns {
  val empty: MouseColumns =
    new MouseColumns(Array.emptyDoubleArray, Array.emptyDoubleArray, Array.emptyByteArray,
      Array.emptyDoubleArray)

  /** Appends events one at a time, into primitive arrays that double when
    * full; `result` holds exactly the events added.
    */
  final class Builder {
    private var n = 0
    private var x, y, ts = new Array[Double](16)
    private var kind = new Array[Byte](16)
    def add(ex: Double, ey: Double, eKind: Byte, eTs: Double): Unit = {
      if (n == ts.length) {
        x = java.util.Arrays.copyOf(x, 2 * n); y = java.util.Arrays.copyOf(y, 2 * n)
        kind = java.util.Arrays.copyOf(kind, 2 * n); ts = java.util.Arrays.copyOf(ts, 2 * n)
      }
      x(n) = ex; y(n) = ey; kind(n) = eKind; ts(n) = eTs
      n += 1
    }
    def result(): MouseColumns = new MouseColumns(java.util.Arrays.copyOf(x, n),
      java.util.Arrays.copyOf(y, n), java.util.Arrays.copyOf(kind, n), java.util.Arrays.copyOf(ts, n))
  }

  /** The indices 0 until n in the stable order of `cmp`, which compares two
    * indices: a natural merge sort that moves only indices. It splits
    * 0 until n into the runs already in order and merges neighbouring runs
    * until one is left, so input in order costs n - 1 comparisons, and a
    * matcher's simulated events (moves, then the clicks) two passes.
    */
  def stableOrder(n: Int)(cmp: (Int, Int) => Int): Array[Int] = {
    var a = Array.range(0, n)
    if (n < 2) return a
    var b = new Array[Int](n)
    // cuts(0 to runs) bound the runs: run r is a(cuts(r) until cuts(r + 1)).
    val cuts = new Array[Int](n + 1)
    var runs = 0
    var e = 1
    while (e < n) {
      if (cmp(e - 1, e) > 0) { runs += 1; cuts(runs) = e }
      e += 1
    }
    runs += 1
    cuts(runs) = n
    while (runs > 1) {
      var r = 0
      var merged = 0
      while (r < runs) {
        val lo = cuts(r)
        val mid = cuts(math.min(r + 1, runs))
        val hi = cuts(math.min(r + 2, runs))
        var i = lo; var j = mid; var k = lo
        while (k < hi) {
          if (j >= hi || (i < mid && cmp(a(i), a(j)) <= 0)) { b(k) = a(i); i += 1 }
          else { b(k) = a(j); j += 1 }
          k += 1
        }
        cuts(merged) = lo
        merged += 1
        r += 2
      }
      cuts(merged) = n
      runs = merged
      val t = a; a = b; b = t
    }
    a
  }
}

/** The movement map G of a study: each matcher's events as
  * [[MouseColumns]], with the matchers in recorded order. A matcher
  * without events has no entry. `size` counts the events of all matchers.
  */
final class MouseStream(val byMatcher: VectorMap[Long, MouseColumns]) {
  require(byMatcher.valuesIterator.forall(_.size > 0), "a matcher entry without mouse events")

  val size: Int = byMatcher.valuesIterator.map(_.size).sum

  /** The events of matcher `id`; empty when it has none. */
  def apply(id: Long): MouseColumns = byMatcher.getOrElse(id, MouseColumns.empty)

  /** Every event as a row, matcher by matcher in recorded order, built as
    * it is read.
    */
  def events: Iterator[MouseEvent] = byMatcher.iterator.flatMap { case (id, c) => c.events(id) }
}

object MouseStream {
  /** The stream of `entries` in their order, without the empty ones. */
  def of(entries: IterableOnce[(Long, MouseColumns)]): MouseStream =
    new MouseStream(VectorMap.from(entries.iterator.filter(_._2.size > 0)))

  /** The stream of `events`: each matcher's events in the order given, the
    * matchers in the order of their first event. Rejects an event kind
    * outside `MouseKinds.All`.
    */
  def fromEvents(events: Seq[MouseEvent]): MouseStream = {
    val builders = scala.collection.mutable.LinkedHashMap.empty[Long, MouseColumns.Builder]
    events.foreach { e =>
      val k = MouseKinds.All.indexOf(e.kind)
      if (k < 0) throw new IllegalArgumentException(
        s"matcher ${e.matcherId}: unknown mouse event kind '${e.kind}'")
      builders.getOrElseUpdate(e.matcherId, new MouseColumns.Builder)
        .add(e.x, e.y, k.toByte, e.ts)
    }
    of(builders.iterator.map { case (id, b) => id -> b.result() })
  }
}

/** One reference-match correspondence (an entry of M^e+). */
final case class RefPair(aIdx: Int, bIdx: Int)

object MouseKinds {
  val Move = "move"
  val Left = "left"
  val Right = "right"
  val Scroll = "scroll"
  val All: IndexedSeq[String] = Vector(Move, Left, Right, Scroll)
  /** Index of each kind in `All`, as [[MouseColumns]] stores it. */
  val MoveIdx: Byte = All.indexOf(Move).toByte
  val LeftIdx: Byte = All.indexOf(Left).toByte
  val RightIdx: Byte = All.indexOf(Right).toByte
  val ScrollIdx: Byte = All.indexOf(Scroll).toByte
}

/** The four expertise characteristics (|L| = 4 in the paper). */
object Labels {
  val Precise = 0
  val Thorough = 1
  val Correlated = 2
  val Calibrated = 3
  val Names: Vector[String] = Vector("P", "R", "Res", "Cal")
  val Count: Int = 4
}

/** Continuous expertise measures of one matcher (Section II-B). */
final case class MatcherMeasures(
    matcherId: Long,
    precision: Double,
    recall: Double,
    resolution: Double,
    resolutionP: Double, // p-value of the gamma test
    calibration: Double, // signed: mean history confidence - precision
)

/** Population thresholds (delta_P, delta_R fixed; delta_Res / delta_Cal are
  * train-population percentiles, Section II-B2).
  */
final case class Thresholds(dP: Double, dR: Double, dRes: Double, dCal: Double)

object Thresholds {
  /** Paper defaults: dP = dR = 0.5; dRes = 80th percentile of train
    * resolutions; dCal = 20th percentile of train |calibration|.
    */
  def fromTrain(train: Seq[MatcherMeasures]): Thresholds = {
    require(train.nonEmpty, "cannot derive thresholds from empty train set")
    Thresholds(
      dP = 0.5,
      dR = 0.5,
      dRes = repro.ml.Stats.percentile(train.map(_.resolution), 80),
      dCal = repro.ml.Stats.percentile(train.map(m => math.abs(m.calibration)), 20),
    )
  }
}

object MatcherMeasures {
  /** Binary 4-way characterization of a matcher against thresholds:
    * E_P, E_R (Eqs. 2-3), E_Res with significance (Eq. 4), E_Cal (Eq. 5).
    */
  def labels(m: MatcherMeasures, t: Thresholds): Array[Boolean] = Array(
    m.precision > t.dP,
    m.recall > t.dR,
    m.resolution > t.dRes && m.resolutionP < 0.05,
    math.abs(m.calibration) < t.dCal,
  )
}
