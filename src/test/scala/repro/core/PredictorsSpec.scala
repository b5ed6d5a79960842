package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.ml.{PcaSpec, Stats}
import repro.synth.MatcherSim

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

  // --- the loop kernel against the collection-based reference ---

  private def bits(xs: Array[Double]): Seq[Long] =
    xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Confidences in (0, 1], tied often. */
  private val confs: Gen[Double] =
    Gen.frequency(2 -> Gen.oneOf(0.05, 0.3, 0.5, 0.75, 1.0), 3 -> Gen.choose(0.01, 1.0))

  /** Entry sets over `nRows` distinct row ids and `nCols` distinct column
    * ids, each row and column holding at least one entry, in random order.
    */
  private def entrySets(nRows: Gen[Int], nCols: Gen[Int]): Gen[Seq[(Int, Int, Double)]] = for {
    nr <- nRows
    nc <- nCols
    rows <- Gen.pick(nr, 0 to 300)
    cols <- Gen.pick(nc, 0 to 300)
    extra <- Gen.someOf(for (a <- rows; b <- cols) yield (a, b))
    cells = ((0 until math.max(nr, nc)).map(i => (rows(i % nr), cols(i % nc))) ++ extra).distinct
    cs <- Gen.listOfN(cells.size, confs)
    seed <- Gen.long
  } yield new scala.util.Random(seed).shuffle(cells.zip(cs).map { case ((a, b), c) => (a, b, c) })

  private def agrees(gen: Gen[Seq[(Int, Int, Double)]], seed: Long): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(seed))
    val res = Test.check(params, Prop.forAllNoShrink(gen) { es =>
      Prop(bits(Predictors.fromEntries(es, 301, 301)) ==
        bits(PredictorsSpec.referenceFromEntries(es, 301, 301)))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("fromEntries equals the reference bit for bit: at most 4 distinct rows") {
    agrees(entrySets(Gen.choose(1, 4), Gen.choose(1, 12)), 1L)
  }

  test("fromEntries equals the reference bit for bit: more than 4 distinct rows") {
    agrees(entrySets(Gen.choose(5, 40), Gen.choose(1, 30)), 2L)
  }

  test("fromEntries equals the reference bit for bit: a single row or a single column") {
    agrees(entrySets(Gen.const(1), Gen.choose(1, 30)), 3L)
    agrees(entrySets(Gen.choose(1, 30), Gen.const(1)), 4L)
  }

  test("fromEntries equals the reference bit for bit: tied confidences") {
    agrees(entrySets(Gen.choose(1, 12), Gen.choose(1, 12)).map(_.map {
      case (a, b, c) => (a, b, math.ceil(c * 3) / 3)
    }), 5L)
  }

  test("Predictors.of equals the reference bit for bit on every matcher of a 500-matcher study") {
    val study = MatcherSim.poStudy(nMatchers = 500)
    val (nA, nB) = (study.task.nA, study.task.nB)
    val histories = study.decisions.groupBy(_.matcherId)
    assert(histories.size === 500)
    histories.foreach { case (id, h) =>
      val entries = MatrixOps.finalEntries(h).collect {
        case d if d.conf > 0.0 => (d.aIdx, d.bIdx, d.conf)
      }
      assert(bits(Predictors.of(h, nA, nB)) ===
        bits(PredictorsSpec.referenceFromEntries(entries, nA, nB)), s"matcher $id")
    }
  }
}

object PredictorsSpec {

  /** The collection-based `fromEntries` the loop kernel replaced, over the
    * reference PCA, kept as the reference it must equal bit for bit.
    */
  def referenceFromEntries(entries: Seq[(Int, Int, Double)], nA: Int, nB: Int): Array[Double] = {
    if (entries.isEmpty) return new Array[Double](Predictors.names.length)
    val confs = entries.map(_._3)
    val rows = entries.map(_._1).distinct
    val cols = entries.map(_._2).distinct
    val rowMax = entries.groupBy(_._1).view.mapValues(_.map(_._3).max).toMap
    val colMax = entries.groupBy(_._2).view.mapValues(_.map(_._3).max).toMap

    val dom = entries.count { case (a, b, c) =>
      c >= rowMax(a) && c >= colMax(b)
    }.toDouble / entries.length
    val bpm = rowMax.values.sum / rowMax.size

    var usedA = Set.empty[Int]; var usedB = Set.empty[Int]
    var bbmWeight = 0.0
    entries.sortBy(-_._3).foreach { case (a, b, c) =>
      if (!usedA(a) && !usedB(b)) { usedA += a; usedB += b; bbmWeight += c }
    }
    val bbm = bbmWeight / entries.length

    val rowCount = entries.groupBy(_._1).view.mapValues(_.size).toMap
    val colCount = entries.groupBy(_._2).view.mapValues(_.size).toMap
    val conflicts = entries.count { case (a, b, _) =>
      rowCount(a) > 1 || colCount(b) > 1
    }.toDouble / entries.length

    val rowSums = entries.groupBy(_._1).view.mapValues(_.map(_._3).sum)
    val colSums = entries.groupBy(_._2).view.mapValues(_.map(_._3).sum)
    val norm1 = colSums.values.max
    val normInf = rowSums.values.max
    val norm2 = math.sqrt(confs.map(c => c * c).sum)
    val mcd = confs.map(c => math.abs(c - math.round(c))).sum / confs.length

    val colIndex = cols.sorted.zipWithIndex.toMap
    val byRow = entries.groupBy(_._1)
    val dense = rows.sorted.map { a =>
      val arr = new Array[Double](cols.length)
      byRow(a).foreach { case (_, b, c) => arr(colIndex(b)) = c }
      arr
    }
    val pca =
      if (dense.length < 2 || cols.length < 2) Array(1.0, 0.0)
      else PcaSpec.Reference.varianceRatios(dense, 2)

    Array(
      entries.length.toDouble,
      rows.length.toDouble / nA,
      cols.length.toDouble / nB,
      Stats.mean(confs), confs.max, Stats.stddev(confs),
      dom, bpm, bbm, conflicts,
      norm1, norm2, normInf,
      mcd, pca(0), pca(1),
    )
  }
}
