package repro.core

import repro.ml.Stats

/** Phi_Beh: aggregated behavioral features over the decision history H
  * (Section III-A, "Aggregated features"): confidence aggregates, decision
  * times, and the number of changed matching decisions — a pure kernel over
  * one matcher's history.
  */
object BehavioralFeatures {

  val names: Vector[String] = Vector(
    "beh_count", "beh_distinctCorr", "beh_mindChanges",
    "beh_avgConf", "beh_stdConf", "beh_minConf", "beh_maxConf",
    "beh_avgTime", "beh_maxTime", "beh_stdTime", "beh_totalTime",
    "beh_confSlope", "beh_gapSlope",
  )

  /** The features of one history, in `seq` order whatever the order of
    * `history`; all zeros for an empty one. The gap of a decision is its
    * time since the previous one, so gaps exist from the second decision
    * on; standard deviations are sample ones, 0 below two values. Slopes
    * are least-squares trends over the decision index, cov(seq, y) /
    * var(seq): the gap slope averages seq·gap and gap over the gap rows,
    * but seq and var(seq) over all decisions (the SQL definition, where
    * the first decision's gap is null).
    */
  def of(history: Seq[Decision]): Array[Double] = {
    if (history.isEmpty) return new Array[Double](names.length)
    val h = history.sortBy(_.seq).toIndexedSeq
    val n = h.size
    val confs = h.map(_.conf)
    val gapRows = (1 until n).map(i => (h(i).seq, h(i).ts - h(i - 1).ts))
    val gaps = gapRows.map(_._2)
    val distinct = h.map(d => (d.aIdx, d.bIdx)).distinct.size

    def mean(xs: Iterable[Double]): Double = xs.foldLeft(0.0)(_ + _) / xs.size
    val meanSeq = mean(h.map(_.seq.toDouble))
    val varSeq = mean(h.map(d => (d.seq * d.seq).toDouble)) - meanSeq * meanSeq
    def slope(meanSeqY: Double, meanY: Double): Double =
      if (varSeq > 0) (meanSeqY - meanSeq * meanY) / varSeq else 0.0
    val meanConf = mean(confs)
    val ts = h.map(_.ts)

    Array(
      n.toDouble, distinct.toDouble, (n - distinct).toDouble,
      meanConf, Stats.onlineStddev(confs), confs.min, confs.max,
      if (gaps.isEmpty) 0.0 else mean(gaps),
      if (gaps.isEmpty) 0.0 else gaps.max,
      Stats.onlineStddev(gaps),
      ts.max - ts.min,
      slope(mean(h.map(d => d.seq * d.conf)), meanConf),
      if (gaps.isEmpty) 0.0 else slope(mean(gapRows.map { case (s, g) => s * g }), mean(gaps)),
    )
  }
}
