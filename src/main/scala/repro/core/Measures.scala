package repro.core

import repro.ml.Stats

/** The four expertise measures of Section II-B, computed per matcher by a
  * pure kernel over its in-memory decision history and the reference match.
  */
object Measures {

  /** Measures of one history:
    *   - P (Eq. 2)  = |sigma ∩ M^e+| / |sigma| over the final matrix;
    *   - R (Eq. 3)  = |sigma ∩ M^e+| / |M^e+|;
    *   - Res (Eq. 4) = Goodman–Kruskal gamma between final-entry confidence
    *     and correctness, with its significance p-value;
    *   - Cal (Eq. 5) = mean *history* confidence − P (the paper averages
    *     over H, not over the final matrix — see Example 1).
    *
    * `None` when the final matrix holds no non-zero entry (sigma is
    * empty). The mean confidence is summed in `seq` order, so the result
    * does not depend on the order of `history`.
    */
  def of(matcherId: Long, history: Seq[Decision], refSet: Set[RefPair],
         refSize: Long): Option[MatcherMeasures] =
    ofFinal(matcherId, MatrixOps.finalEntries(history), meanConfidence(history), refSet, refSize)

  /** `of` from a history's Eq. 1 entries (`MatrixOps.finalEntries`) and
    * its `meanConfidence`.
    */
  def ofFinal(matcherId: Long, finals: Seq[Decision], meanConf: Double, refSet: Set[RefPair],
              refSize: Long): Option[MatcherMeasures] = {
    val sigma = finals.filter(_.conf > 0.0)
    if (sigma.isEmpty) None
    else {
      val correct = sigma.map(d => refSet.contains(RefPair(d.aIdx, d.bIdx)))
      val nCorrect = correct.count(identity)
      val p = nCorrect.toDouble / sigma.size
      val rec = if (refSize == 0) 0.0 else nCorrect.toDouble / refSize
      val (gamma, pv) = Stats.gammaTest(sigma.map(_.conf), correct)
      Some(MatcherMeasures(matcherId, p, rec, gamma, pv, meanConf - p))
    }
  }

  /** Mean reported confidence of a non-empty history, summed in `seq`
    * order: the Conf baseline's score and the first term of Cal.
    */
  def meanConfidence(history: Seq[Decision]): Double =
    history.sortBy(_.seq).foldLeft(0.0)(_ + _.conf) / history.size

  /** `of` for every history of a population; matchers with an empty sigma
    * have no entry.
    */
  def perMatcher(histories: Map[Long, Seq[Decision]], refSet: Set[RefPair],
                 refSize: Long): Map[Long, MatcherMeasures] =
    histories.flatMap { case (id, h) => of(id, h, refSet, refSize).map(id -> _) }

  /** Labels for a set of matchers under train-derived thresholds. */
  def characterize(ms: Seq[MatcherMeasures], t: Thresholds): Map[Long, Array[Boolean]] =
    ms.map(m => m.matcherId -> MatcherMeasures.labels(m, t)).toMap
}
