package repro.core

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

/** One mouse event of the movement map G. */
final case class MouseEvent(
    matcherId: Long,
    x: Double,
    y: Double,
    kind: String,   // one of MouseKinds
    ts: Double,
)

/** One reference-match correspondence (an entry of M^e+). */
final case class RefPair(aIdx: Int, bIdx: Int)

object MouseKinds {
  val Move = "move"
  val Left = "left"
  val Right = "right"
  val Scroll = "scroll"
  val All: Seq[String] = Seq(Move, Left, Right, Scroll)
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
