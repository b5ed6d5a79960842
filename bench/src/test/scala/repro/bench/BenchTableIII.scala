package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Experiments, FeatureTable}

/** Table III — feature-set ablation of MExI_50 over the PO folds:
  * `include X` trains on feature set X alone, `exclude X` on everything
  * but X.
  */
class BenchTableIII extends AnyFunSuite {
  import BenchState._

  private def rows = BenchState.run.iii

  test("Table III: print measured ablation") {
    println(Experiments.formatAccuracyTable(
      "Table III: MExI_50 feature-set ablation (PO)", rows))
    assert(rows.size === 11)
  }

  test("Table III: every cell equals BENCH_mexi.json") {
    GoldenCells.check("tableIII", GoldenCells.accuracyCells(rows)).foreach(fail(_))
  }

  test("shape: the full model is at least as good as any single set (aML)") {
    val full = row(rows, "MExI_50").acc.aML
    FeatureTable.Groups.foreach { s =>
      assert(full >= row(rows, s"include $s").acc.aML - 0.02, s"include $s")
    }
  }

  test("shape: matching predictors dominate the quantitative measures") {
    // Paper: Phi_LRSM is the most important set for A_P (include row).
    // Tolerance: in our simulator mouse region-choice also carries skill
    // (the paper's Matcher-B anecdote), so spatial sets trail close behind.
    val lrsmP = row(rows, "include lrsm").acc.aP
    Seq("mou", "beh", "spa").foreach { s =>
      assert(lrsmP >= row(rows, s"include $s").acc.aP - 0.05,
        s"lrsm $lrsmP vs include $s ${row(rows, s"include $s").acc.aP}")
    }
  }

  test("shape: behavioral/mouse sets matter for the cognitive measures") {
    // Paper: mouse and sequential features lead on A_Res/A_Cal; check that
    // at least one behavioral set beats the pure matrix predictors there.
    val best = FeatureTable.Groups.filter(_ != "lrsm")
      .map(s => math.max(row(rows, s"include $s").acc.aRes,
        row(rows, s"include $s").acc.aCal)).max
    val lrsm = math.max(row(rows, "include lrsm").acc.aRes,
      row(rows, "include lrsm").acc.aCal)
    assert(best >= lrsm - 0.05)
  }

  test("include and exclude rows exist for all five sets") {
    FeatureTable.Groups.foreach { s =>
      assert(rows.exists(_.method == s"include $s"))
      assert(rows.exists(_.method == s"exclude $s"))
    }
  }
}
