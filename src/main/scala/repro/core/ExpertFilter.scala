package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.synth.StudyData

/** Section IV-F: using the identified experts to improve the matching
  * outcome. `Experiments.utilization` selects the matchers MExI's
  * cross-validation predictions mark expert; here non-expert
  * correspondences are filtered out, and the surviving expert matrices are
  * fused by vote aggregation into a final match: in memory for Figs. 10-11
  * (`fusedMatchOf`), and as the oracle-checked DataFrame stage `fusedMatch`.
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

  /** Votes a pair needs among `selected` matchers, each counted with or
    * without decisions: `voteFrac` of them, rounded up, and at least one.
    */
  def quorum(voteFrac: Double, selected: Int): Long = {
    require(selected > 0, "cannot fuse an empty matcher set")
    math.max(1L, math.ceil(voteFrac * selected).toLong)
  }

  /** The final match of the selected matchers: the pairs whose consensus
    * pi (Section III-B) over them reaches the `quorum`. The selected rows
    * shuffle once, by element pair, as in `MatrixOps.consensus`.
    */
  def fusedMatch(decisions: DataFrame, selected: Set[Long], voteFrac: Double): DataFrame =
    MatrixOps.consensus(decisions.where(col("matcherId").isInCollection(selected.toSeq)))
      .where(col("consensus") >= quorum(voteFrac, selected.size))
      .select("aIdx", "bIdx")

  /** `fusedMatch` over the histories of the selected matchers that have one. */
  def fusedMatchOf(histories: Map[Long, Seq[Decision]], selected: Set[Long],
                   voteFrac: Double): Set[(Int, Int)] = {
    val q = quorum(voteFrac, selected.size)
    MatrixOps.consensusOf(selected.toSeq.flatMap(histories.get)).filter(_._2 >= q).keySet
  }

  /** Precision/recall of fused pairs against a reference of `refSize`
    * pairs. A fused pair hits as often as `reference` holds it, as an inner
    * join on (aIdx, bIdx) counts it.
    */
  def fusedQuality(fused: Iterable[(Int, Int)], reference: Iterable[(Int, Int)],
                   refSize: Long): (Double, Double) = {
    val refCount = reference.groupMapReduce(identity)(_ => 1L)(_ + _)
    val n = fused.size.toLong
    val hit = fused.iterator.map(refCount.getOrElse(_, 0L)).sum
    (if (n == 0) 0.0 else hit.toDouble / n,
      if (refSize == 0) 0.0 else hit.toDouble / refSize)
  }

  /** `fusedQuality` of collected DataFrames; the fused plan runs once. */
  def fusedQuality(fused: DataFrame, reference: DataFrame, refSize: Long): (Double, Double) = {
    def pairs(df: DataFrame): Array[(Int, Int)] =
      df.select("aIdx", "bIdx").collect().map(r => (r.getInt(0), r.getInt(1)))
    fusedQuality(pairs(fused), pairs(reference), refSize)
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
