package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Experiments

/** Table IIa — expert identification on the PO task (5-fold CV over 106
  * matchers). Prints the measured table; EXPERIMENTS.md places it next to
  * the paper's numbers. The assertions pin the paper's qualitative shape:
  * MExI beats the baselines and sub-matcher augmentation helps.
  */
class BenchTableIIa extends AnyFunSuite {
  import BenchState._

  private def rows = BenchState.run.iia

  test("Table IIa: print measured accuracies") {
    println(Experiments.formatAccuracyTable(
      "Table IIa: Schema Matching (PO), 5-fold CV", rows))
    assert(rows.size === 10)
  }

  test("Table IIa: every cell equals BENCH_mexi.json") {
    GoldenCells.check("tableIIa", GoldenCells.accuracyCells(rows)).foreach(fail(_))
  }

  private def bestMexi(metric: MExI_Acc => Double): Double =
    Seq("MExI_0", "MExI_50", "MExI_70")
      .map(m => metric(row(rows, m).acc)).max
  private type MExI_Acc = repro.core.MExI.Accuracies

  test("shape: the best MExI variant beats every baseline on aML") {
    val best = bestMexi(_.aML)
    val baselines = Seq("Rand", "Rand_Freq", "Conf", "Qual. Test",
      "Self-Assess", "LRSM", "BEH")
    baselines.foreach { b =>
      assert(best > row(rows, b).acc.aML,
        s"best MExI aML $best should beat $b ${row(rows, b).acc.aML}")
    }
  }

  test("shape: sub-matcher augmentation improves over MExI_0 (aML)") {
    // The paper's ordering is _50 > _70 > _0; in our simulation the gain
    // is monotone in augmentation volume (see EXPERIMENTS.md) — the shape
    // preserved here is 'augmentation helps'.
    val augmented = math.max(row(rows, "MExI_50").acc.aML,
      row(rows, "MExI_70").acc.aML)
    assert(augmented >= row(rows, "MExI_0").acc.aML)
  }

  test("shape: the best MExI variant beats the best baseline on precision accuracy") {
    val best = bestMexi(_.aP)
    assert(best >= row(rows, "LRSM").acc.aP)
    assert(best >= row(rows, "BEH").acc.aP)
  }

  test("shape: learned baselines beat the naive ones on aML") {
    val learned = Seq("LRSM", "BEH").map(m => row(rows, m).acc.aML).max
    val naive = Seq("Rand", "Conf").map(m => row(rows, m).acc.aML).max
    assert(learned > naive)
  }

  test("all accuracies are valid probabilities") {
    rows.foreach(r => r.acc.toSeq.foreach(a => assert(a >= 0.0 && a <= 1.0)))
  }
}
