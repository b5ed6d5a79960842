package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MeasuresSpec extends AnyFunSuite {

  /** Example 1 of the paper: history of Table I with reference match
    * M^e+ = {M11, M12, M23, M34} (1-based in the paper; kept as raw ints).
    */
  private def tableI = Seq(
    Decision(1L, 0, 3, 4, 1.0, 3.0),
    Decision(1L, 1, 1, 1, 0.9, 8.0),
    Decision(1L, 2, 1, 2, 0.5, 15.0),
    Decision(1L, 3, 1, 1, 0.5, 16.0),
    Decision(1L, 4, 2, 1, 0.45, 34.0),
  )
  private val refI = Set(RefPair(1, 1), RefPair(1, 2), RefPair(2, 3), RefPair(3, 4))

  private def exampleMeasures: MatcherMeasures =
    Measures.of(1L, tableI, refI, refSize = 4).get

  test("Example 1: precision is 3/4") {
    assert(exampleMeasures.precision === 0.75)
  }

  test("Example 1: recall is 3/4") {
    assert(exampleMeasures.recall === 0.75)
  }

  test("Example 1: resolution is 1.0 and not significant") {
    val m = exampleMeasures
    assert(m.resolution === 1.0)
    assert(m.resolutionP > 0.05, "the paper reports p = 0.5 for this history")
  }

  test("Example 1: calibration is mean history confidence minus precision") {
    // Mean of (1.0, 0.9, 0.5, 0.5, 0.45) = 0.67; P = 0.75 -> Cal = -0.08.
    // (The paper's prose says -0.12, which contradicts its own Eq. 5 —
    // see DESIGN.md 'Known deviations'.)
    assert(math.abs(exampleMeasures.calibration - (0.67 - 0.75)) < 1e-9)
  }

  test("a matcher with no correct decisions scores zero P and R") {
    val d = Seq(Decision(7L, 0, 9, 9, 0.8, 1.0))
    val m = Measures.of(7L, d, refI, refSize = 4).get
    assert(m.precision === 0.0 && m.recall === 0.0)
  }

  test("measures are computed per matcher in one pass") {
    val d = (tableI ++ Seq(Decision(2L, 0, 1, 1, 0.6, 1.0))).groupBy(_.matcherId)
    val ms = Measures.perMatcher(d, refI, refSize = 4)
    assert(ms.keySet === Set(1L, 2L))
    assert(ms(1L) === exampleMeasures)
    val m2 = ms(2L)
    assert(m2.precision === 1.0 && m2.recall === 0.25)
  }

  test("revisits affect precision through the final matrix only") {
    // A wrong pair retracted to conf 0 leaves a clean match.
    val d = Seq(
      Decision(3L, 0, 9, 9, 0.8, 1.0),
      Decision(3L, 1, 9, 9, 0.0, 2.0),
      Decision(3L, 2, 1, 1, 0.9, 3.0),
    )
    val m = Measures.of(3L, d, refI, refSize = 4).get
    assert(m.precision === 1.0)
  }

  test("a history whose every pair is retracted has no measures") {
    val d = Seq(Decision(4L, 0, 1, 1, 0.8, 1.0), Decision(4L, 1, 1, 1, 0.0, 2.0))
    assert(Measures.of(4L, d, refI, refSize = 4).isEmpty)
    assert(Measures.perMatcher(Map(4L -> d), refI, refSize = 4).isEmpty)
  }

  test("thresholds derive from the train population percentiles") {
    val train = (1 to 10).map(i => MatcherMeasures(i.toLong, 0.5, 0.5,
      i / 10.0, 0.01, i / 20.0))
    val t = Thresholds.fromTrain(train)
    assert(t.dP === 0.5 && t.dR === 0.5)
    assert(math.abs(t.dRes - repro.ml.Stats.percentile((1 to 10).map(_ / 10.0), 80)) < 1e-12)
    assert(math.abs(t.dCal - repro.ml.Stats.percentile((1 to 10).map(_ / 20.0), 20)) < 1e-12)
  }

  test("labels apply Eqs. 2-5 with significance gating on resolution") {
    val t = Thresholds(0.5, 0.5, 0.3, 0.2)
    val good = MatcherMeasures(1L, 0.8, 0.6, 0.7, 0.01, 0.1)
    assert(MatcherMeasures.labels(good, t).toSeq === Seq(true, true, true, true))
    val insignificant = good.copy(resolutionP = 0.2)
    assert(MatcherMeasures.labels(insignificant, t)(Labels.Correlated) === false)
    val overconfident = good.copy(calibration = 0.5)
    assert(MatcherMeasures.labels(overconfident, t)(Labels.Calibrated) === false)
    val underconfident = good.copy(calibration = -0.1)
    assert(MatcherMeasures.labels(underconfident, t)(Labels.Calibrated) === true)
  }

  test("characterize maps each matcher to its labels") {
    val ms = Seq(
      MatcherMeasures(1L, 0.9, 0.9, 0.9, 0.001, 0.0),
      MatcherMeasures(2L, 0.1, 0.1, -0.5, 0.9, 0.5),
    )
    val t = Thresholds(0.5, 0.5, 0.3, 0.2)
    val c = Measures.characterize(ms, t)
    assert(c(1L).toSeq === Seq(true, true, true, true))
    assert(c(2L).toSeq === Seq(false, false, false, false))
  }
}
