package repro.core

import org.apache.spark.sql.DataFrame

/** Phi_Seq input extraction: per matcher, the ordered sequence of
  * (confidence, inter-decision time, consensus) triples that feeds the
  * per-label LSTMs (Section III-B):
  *   - h_t.c — the declared confidence;
  *   - h_t.t - h_{t-1}.t — time to reach the decision (clipped/normalized);
  *   - pi_t — how many training matchers kept h_t.e in their final matrix
  *     (normalized by the training population size).
  */
object SeqFeatures {

  val FeatureDim = 3
  private val GapClipSeconds = 60.0

  /** The LSTM input sequence of one history, in `seq` order whatever the
    * order of `history`. `consensus` maps (aIdx, bIdx) to the training
    * population's consensus (absent pairs count 0); `nTrainMatchers`
    * normalizes it to [0, 1].
    */
  def of(history: Seq[Decision], consensus: Map[(Int, Int), Long],
         nTrainMatchers: Int): IndexedSeq[Array[Double]] = {
    val steps = history.sortBy(_.seq).toIndexedSeq
    steps.indices.map { i =>
      val d = steps(i)
      val gap = if (i == 0) 0.0 else d.ts - steps(i - 1).ts
      val cons = consensus.getOrElse((d.aIdx, d.bIdx), 0L)
      Array(
        d.conf,
        math.min(gap, GapClipSeconds) / GapClipSeconds,
        math.min(1.0, cons.toDouble / math.max(1, nTrainMatchers)),
      )
    }
  }

  /** `of` for every matcher in a decision DataFrame, with the consensus
    * given as a DataFrame (aIdx, bIdx, consensus); both are collected into
    * memory.
    */
  def sequences(decisions: DataFrame, consensus: DataFrame, nTrainMatchers: Int)
      : Map[Long, IndexedSeq[Array[Double]]] = {
    import decisions.sparkSession.implicits._
    val cons = consensus.select("aIdx", "bIdx", "consensus").collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    decisions.select("matcherId", "seq", "aIdx", "bIdx", "conf", "ts").as[Decision]
      .collect().groupBy(_.matcherId)
      .map { case (id, h) => id -> of(h.toSeq, cons, nTrainMatchers) }
  }
}
