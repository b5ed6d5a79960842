package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Experiments

/** Table IIb — generalizability: train on the 106 PO matchers, test on
  * the 34 OAEI matchers (shifted population, different task).
  */
class BenchTableIIb extends AnyFunSuite {
  import BenchState._

  private lazy val rows = Experiments.tableIIb(po, oaei, cfg)

  test("Table IIb: print measured accuracies") {
    println(Experiments.formatAccuracyTable(
      "Table IIb: Ontology Alignment (OAEI), PO-trained", rows))
    assert(rows.size === 10)
  }

  test("shape: the best MExI variant still leads on aML cross-domain") {
    val best = Seq("MExI_0", "MExI_50", "MExI_70")
      .map(m => row(rows, m).acc.aML).max
    Seq("Rand", "Rand_Freq", "Conf", "Qual. Test", "Self-Assess").foreach { b =>
      assert(best > row(rows, b).acc.aML, s"vs $b")
    }
    assert(best >= row(rows, "LRSM").acc.aML)
  }

  test("shape: the cross-domain margin is smaller than in-domain (IIa)") {
    def margin(rs: Vector[Experiments.TableRow]): Double = {
      val best = Seq("LRSM", "BEH").map(m => row(rs, m).acc.aML).max
      row(rs, "MExI_50").acc.aML - best
    }
    assert(margin(rows) <= margin(tableIIaRows) + 0.05,
      "generalization should not widen the margin")
  }

  test("all accuracies are valid probabilities") {
    rows.foreach(r => r.acc.toSeq.foreach(a => assert(a >= 0.0 && a <= 1.0)))
  }
}
