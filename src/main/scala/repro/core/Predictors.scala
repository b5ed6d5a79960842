package repro.core

import repro.ml.{Pca, Stats}

/** Phi_LRSM: matching predictors computed over a matcher's matching matrix
  * (Sagi & Gal VLDBJ'13; Gal et al. TKDE'19 "learning to rerank").
  *
  * Precision-leaning predictors (dominants, best-pair averages, binary
  * matching weight) and recall/uncertainty-leaning predictors (matrix
  * norms, binarization error, PCA variance ratios) are both included, as
  * the paper uses the former for the Precision label and the latter for
  * Thoroughness (Section III-A).
  *
  * The computation needs a matcher's whole (sparse) matrix at once; it is a
  * pure kernel over the matcher's in-memory history.
  */
object Predictors {

  val names: Vector[String] = Vector(
    "lrsm_nSigma", "lrsm_rowCov", "lrsm_colCov",
    "lrsm_avgConf", "lrsm_maxConf", "lrsm_stdConf",
    "lrsm_dom", "lrsm_bpm", "lrsm_bbm", "lrsm_conflicts",
    "lrsm_norm1", "lrsm_norm2", "lrsm_normsinf",
    "lrsm_mcd", "lrsm_pca1", "lrsm_pca2",
  )

  /** The predictors of one history: `fromEntries` over the non-zero entries
    * of its Eq. 1 matrix, in (aIdx, bIdx) order whatever the order of
    * `history`, so that ties in the greedy bbm matching break the same way
    * every time.
    */
  def of(history: Seq[Decision], nA: Int, nB: Int): Array[Double] =
    fromEntries(MatrixOps.finalEntries(history).collect {
      case d if d.conf > 0.0 => (d.aIdx, d.bIdx, d.conf)
    }, nA, nB)

  /** Predictor vector for one matcher's non-zero entries; bbm takes tied
    * confidences in the order of `entries`.
    */
  def fromEntries(entries: Seq[(Int, Int, Double)], nA: Int, nB: Int): Array[Double] = {
    if (entries.isEmpty) return new Array[Double](names.length)
    val confs = entries.map(_._3)
    val rows = entries.map(_._1).distinct
    val cols = entries.map(_._2).distinct
    val rowMax = entries.groupBy(_._1).view.mapValues(_.map(_._3).max).toMap
    val colMax = entries.groupBy(_._2).view.mapValues(_.map(_._3).max).toMap

    val dom = entries.count { case (a, b, c) =>
      c >= rowMax(a) && c >= colMax(b)
    }.toDouble / entries.length
    val bpm = rowMax.values.sum / rowMax.size

    // Greedy 1:1 bipartite matching by descending confidence.
    var usedA = Set.empty[Int]; var usedB = Set.empty[Int]
    var bbmWeight = 0.0
    entries.sortBy(-_._3).foreach { case (a, b, c) =>
      if (!usedA(a) && !usedB(b)) { usedA += a; usedB += b; bbmWeight += c }
    }
    val bbm = bbmWeight / entries.length

    // 1:1-constraint violations: entries sharing a row or column with
    // another entry. Coherent (near-injective) matrices are what careful
    // matchers produce; conflicts signal imprecision.
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

    // PCA over the dense occupied-rows x occupied-cols submatrix.
    val colIndex = cols.sorted.zipWithIndex.toMap
    val byRow = entries.groupBy(_._1)
    val dense = rows.sorted.map { a =>
      val arr = new Array[Double](cols.length)
      byRow(a).foreach { case (_, b, c) => arr(colIndex(b)) = c }
      arr
    }
    val pca =
      if (dense.length < 2 || cols.length < 2) Array(1.0, 0.0)
      else Pca.varianceRatios(dense, 2)

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
