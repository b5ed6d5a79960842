package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.synth.StudyData

/** Section IV-F: using the identified experts to improve the matching
  * outcome. `Experiments.utilization` selects the matchers MExI's
  * cross-validation predictions mark expert; here non-expert
  * correspondences are filtered out, and the surviving expert matrices are
  * fused by vote aggregation into a final match.
  */
object ExpertFilter {

  /** Mean population quality of a matcher subset: (P, R, Res, |Cal|).
    * `no_filter` is the full population; lower |Cal| is better.
    */
  def measureStats(measures: Map[Long, MatcherMeasures], ids: Iterable[Long])
      : (Double, Double, Double, Double) = {
    val ms = ids.map(measures).toSeq
    require(ms.nonEmpty, "empty matcher subset")
    (ms.map(_.precision).sum / ms.size,
      ms.map(_.recall).sum / ms.size,
      ms.map(_.resolution).sum / ms.size,
      ms.map(m => math.abs(m.calibration)).sum / ms.size)
  }

  /** Fuses the matrices of the selected matchers into one final match:
    * keep every pair selected by at least `voteFrac` of them (vote
    * aggregation after the expert filter).
    */
  def fusedMatch(decisions: DataFrame, selected: Set[Long], voteFrac: Double): DataFrame = {
    require(selected.nonEmpty, "cannot fuse an empty matcher set")
    val k = selected.size
    val votesNeeded = math.max(1.0, math.ceil(voteFrac * k))
    MatrixOps.sigma(decisions.where(col("matcherId").isInCollection(selected.toSeq)))
      .groupBy("aIdx", "bIdx")
      .agg(countDistinct("matcherId").as("votes"))
      .where(col("votes") >= votesNeeded)
      .select("aIdx", "bIdx")
  }

  /** Precision/recall of a fused match against the reference. The fused
    * plan runs once: its pairs are collected and each is matched against
    * the collected reference, counting a pair as often as the inner join on
    * (aIdx, bIdx) would.
    */
  def fusedQuality(fused: DataFrame, reference: DataFrame, refSize: Long): (Double, Double) = {
    def pairs(df: DataFrame): Array[(Int, Int)] =
      df.select("aIdx", "bIdx").collect().map(r => (r.getInt(0), r.getInt(1)))
    val fusedPairs = pairs(fused)
    val refCount = pairs(reference).groupMapReduce(identity)(_ => 1L)(_ + _)
    val n = fusedPairs.length.toLong
    val hit = fusedPairs.iterator.map(refCount.getOrElse(_, 0L)).sum
    (if (n == 0) 0.0 else hit.toDouble / n,
      if (refSize == 0) 0.0 else hit.toDouble / refSize)
  }

  /** First `k` decisions of every matcher, with each matcher's mouse
    * columns cut at its k-th decision's timestamp (events at `ts <=` it
    * stay, in recorded order) — the "early identification" input of
    * Figure 11 (k = 30, half the median decision count).
    */
  def truncateStudy(study: StudyData, k: Int): StudyData = {
    val byMatcher = study.decisions.groupBy(_.matcherId)
    val truncated = byMatcher.view.mapValues(_.sortBy(_.seq).take(k)).toMap
    val cutoff = truncated.view.mapValues(h => h.lastOption.map(_.ts).getOrElse(0.0)).toMap
    study.copy(
      decisions = study.decisions.filter(d => d.seq < k),
      mouse = MouseStream.of(study.mouse.byMatcher.iterator.map { case (id, events) =>
        id -> events.upTo(cutoff.getOrElse(id, 0.0))
      }),
    )
  }
}
