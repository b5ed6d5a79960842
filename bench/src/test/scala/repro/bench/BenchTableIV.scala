package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{FeatureTable, Labels}

/** Table IV — the two most informative features per feature set and
  * characteristic, via permutation importance (SHAP stand-in).
  */
class BenchTableIV extends AnyFunSuite {

  private def top2 = BenchState.run.iv

  test("Table IV: print measured top-2 features per set and label") {
    println("== Table IV: top-2 informative features (permutation importance) ==")
    println(f"${"Set"}%-6s ${"E_P"}%-28s ${"E_R"}%-28s ${"E_Res"}%-28s ${"E_Cal"}%-28s")
    FeatureTable.Groups.foreach { s =>
      val cells = Labels.Names.map(l => top2((s, l)).mkString(", "))
      println(f"$s%-6s ${cells(0)}%-28s ${cells(1)}%-28s ${cells(2)}%-28s ${cells(3)}%-28s")
    }
    assert(top2.size === 20)
  }

  test("Table IV: every cell equals BENCH_mexi.json") {
    GoldenCells.check("tableIV", GoldenCells.importanceCells(top2)).foreach(fail(_))
  }

  test("every cell names features from its own set") {
    top2.foreach { case ((set, _), feats) =>
      assert(feats.nonEmpty && feats.size <= 2)
      feats.foreach(f => assert(f.startsWith(s"${set}_"), s"$f not in $set"))
    }
  }

  test("top features are distinct within a cell") {
    top2.values.foreach(fs => assert(fs.distinct.size === fs.size))
  }
}
