package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PredictorsSpec extends AnyFunSuite {

  private def idx(name: String): Int = Predictors.names.indexOf(name)

  test("feature vector covers all declared names") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.5)), 4, 4)
    assert(f.length === Predictors.names.length)
  }

  test("empty matrix yields an all-zero vector") {
    assert(Predictors.fromEntries(Seq.empty, 4, 4).forall(_ === 0.0))
  }

  test("confidence aggregates are correct") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.2), (1, 1, 0.6), (2, 2, 1.0)), 4, 4)
    assert(math.abs(f(idx("lrsm_avgConf")) - 0.6) < 1e-12)
    assert(f(idx("lrsm_maxConf")) === 1.0)
    assert(math.abs(f(idx("lrsm_stdConf")) - 0.4) < 1e-12)
  }

  test("coverage ratios count distinct rows and columns") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)), 4, 8)
    assert(f(idx("lrsm_nSigma")) === 3.0)
    assert(math.abs(f(idx("lrsm_rowCov")) - 2.0 / 4) < 1e-12)
    assert(math.abs(f(idx("lrsm_colCov")) - 2.0 / 8) < 1e-12)
  }

  test("dominants: a diagonal matrix is fully dominant") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)), 3, 3)
    assert(f(idx("lrsm_dom")) === 1.0)
  }

  test("dominants: row/column collisions reduce dominance") {
    // Two entries in the same row: only the larger is dominant.
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.4)), 3, 3)
    assert(math.abs(f(idx("lrsm_dom")) - 0.5) < 1e-12)
  }

  test("bpm averages the per-row maxima") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.5), (1, 2, 0.3)), 3, 3)
    assert(math.abs(f(idx("lrsm_bpm")) - (0.9 + 0.3) / 2) < 1e-12)
  }

  test("bbm is the greedy 1:1 matching weight over all entries") {
    // Greedy picks (0,0,0.9) then (1,1,0.6); (0,1,0.8) conflicts on row 0.
    val f = Predictors.fromEntries(Seq((0, 0, 0.9), (0, 1, 0.8), (1, 1, 0.6)), 3, 3)
    assert(math.abs(f(idx("lrsm_bbm")) - (0.9 + 0.6) / 3) < 1e-12)
  }

  test("conflicts counts 1:1-constraint violations") {
    // (0,0) and (0,1) share row 0; (1,1) shares col 1 with (0,1); (2,2) clean.
    val f = Predictors.fromEntries(
      Seq((0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5), (2, 2, 0.5)), 4, 4)
    assert(math.abs(f(idx("lrsm_conflicts")) - 0.75) < 1e-12)
    val clean = Predictors.fromEntries(Seq((0, 0, 0.5), (1, 1, 0.5)), 4, 4)
    assert(clean(idx("lrsm_conflicts")) === 0.0)
  }

  test("matrix norms match hand computation") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.6), (0, 1, 0.8), (1, 0, 0.3)), 3, 3)
    assert(math.abs(f(idx("lrsm_norm1")) - 0.9) < 1e-12)    // max col sum (col 0)
    assert(math.abs(f(idx("lrsm_normsinf")) - 1.4) < 1e-12) // max row sum (row 0)
    assert(math.abs(f(idx("lrsm_norm2")) - math.sqrt(0.36 + 0.64 + 0.09)) < 1e-12)
  }

  test("mcd measures distance from a binary matrix") {
    val crisp = Predictors.fromEntries(Seq((0, 0, 1.0), (1, 1, 0.95)), 3, 3)
    val fuzzy = Predictors.fromEntries(Seq((0, 0, 0.5), (1, 1, 0.45)), 3, 3)
    assert(crisp(idx("lrsm_mcd")) < fuzzy(idx("lrsm_mcd")))
    assert(math.abs(fuzzy(idx("lrsm_mcd")) - (0.5 + 0.45) / 2) < 1e-12)
  }

  test("pca1 is 1 for a single-row-pattern matrix and splits otherwise") {
    // All rows proportional -> rank-1 -> pca1 = 1.
    val f = Predictors.fromEntries(
      Seq((0, 0, 0.2), (0, 1, 0.4), (1, 0, 0.4), (1, 1, 0.8), (2, 0, 0.1), (2, 1, 0.2)),
      4, 4)
    assert(f(idx("lrsm_pca1")) > 0.99)
    assert(f(idx("lrsm_pca2")) < 0.01)
  }

  test("degenerate single-entry matrices default pca to (1, 0)") {
    val f = Predictors.fromEntries(Seq((0, 0, 0.7)), 3, 3)
    assert(f(idx("lrsm_pca1")) === 1.0 && f(idx("lrsm_pca2")) === 0.0)
  }

  test("Predictors.of scores the non-zero final entries in (aIdx, bIdx) order") {
    val history = Seq(
      Decision(1L, 0, 1, 1, 0.7, 1.0),
      Decision(1L, 1, 0, 0, 0.9, 2.0),
      Decision(1L, 2, 2, 2, 0.0, 3.0), // a zero final confidence is not in sigma
    )
    val exp = Predictors.fromEntries(Seq((0, 0, 0.9), (1, 1, 0.7)), 4, 4)
    assert(Predictors.of(history, 4, 4).toSeq === exp.toSeq)
    assert(Predictors.of(Seq.empty, 4, 4).toSeq === Predictors.fromEntries(Seq.empty, 4, 4).toSeq)
  }

  test("Predictors.of applies Eq. 1 before scoring") {
    // The revisit (conf 0.2 at t=5) must override conf 0.9 at t=1.
    val history = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.2, 5.0),
    )
    val f = Predictors.of(history, 4, 4)
    assert(f(idx("lrsm_avgConf")) === 0.2)
    assert(f(idx("lrsm_nSigma")) === 1.0)
  }
}
