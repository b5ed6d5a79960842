package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Labels, MatcherMeasures, Thresholds}

/** Section IV-C (Figures 8-9 as text): population marginals of the
  * simulated PO matchers — mean measures and the fraction of experts per
  * characteristic, next to the paper's reported values. It validates the
  * simulator against the paper's population statistics.
  */
class BenchPopulation extends AnyFunSuite {
  import BenchState._

  test("Figs. 8-9 (as text): print the population characterization") {
    val ms = po.measures.values.toVector
    val t = Thresholds.fromTrain(ms)
    val labels = ms.map(m => MatcherMeasures.labels(m, t))
    def mean(xs: Seq[Double]) = xs.sum / xs.size
    val sb = new StringBuilder
    sb.append("== Population characterization (paper Section IV-C) ==\n")
    sb.append(f"mean P     = ${mean(ms.map(_.precision))}%.2f   (paper: 0.55)\n")
    sb.append(f"mean R     = ${mean(ms.map(_.recall))}%.2f   (paper: 0.33)\n")
    sb.append(f"mean |Res| = ${mean(ms.map(m => math.abs(m.resolution)))}%.2f   (paper: 0.37 abs)\n")
    sb.append(f"mean Res+  = ${mean(ms.map(_.resolution).filter(_ > 0))}%.2f   (paper: 0.61 positives)\n")
    sb.append(f"mean |Cal| = ${mean(ms.map(m => math.abs(m.calibration)))}%.2f   (paper: 0.33)\n")
    sb.append(f"thresholds: dRes=${t.dRes}%.2f dCal=${t.dCal}%.2f\n")
    val names = Seq("precise", "thorough", "correlated", "calibrated")
    val paper = Seq(0.53, 0.15, 0.33, 0.42)
    for (l <- 0 until Labels.Count) {
      val frac = labels.count(_(l)).toDouble / labels.size
      sb.append(f"${names(l)}%-10s = $frac%.2f   (paper: ${paper(l)}%.2f)\n")
    }
    val allFour = labels.count(_.forall(identity)).toDouble / labels.size
    sb.append(f"all-four experts = $allFour%.2f (Fig. 9 darkest shade; must be > 0)\n")
    val thorough = labels.filter(_(Labels.Thorough))
    if (thorough.nonEmpty) {
      sb.append(s"of ${thorough.size} thorough: " +
        s"precise=${thorough.count(_(Labels.Precise))} " +
        s"correlated=${thorough.count(_(Labels.Correlated))} " +
        s"calibrated=${thorough.count(_(Labels.Calibrated))}\n")
      val thoroughCals = ms.filter(_.recall > t.dR).map(_.calibration)
      sb.append(f"thorough Cal: mean=${mean(thoroughCals)}%.3f " +
        f"min=${thoroughCals.min}%.3f max=${thoroughCals.max}%.3f (dCal=${t.dCal}%.3f)\n")
    }
    println(sb.toString)
    assert(allFour > 0, "no matcher is an expert in all four characteristics")
  }
}
