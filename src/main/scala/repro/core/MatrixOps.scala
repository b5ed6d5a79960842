package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Matching-matrix construction and match (sigma) extraction (Section
  * II-A2, Eq. 1): as DataFrame transformations for the relational stages,
  * and as pure kernels over one in-memory history for the per-matcher ones.
  * The relational stages shuffle once: `finalMatrix` hash-partitions the
  * decisions by element pair into `defaultParallelism` slices, which
  * clusters both the Eq. 1 aggregate over (matcherId, aIdx, bIdx) and the
  * consensus count over (aIdx, bIdx). Neither plan holds a window or a
  * distinct aggregate.
  */
object MatrixOps {

  /** Eq. 1: the matching matrix holds the latest confidence per element
    * pair. Input: a decision-history DataFrame (matcherId, seq, aIdx, bIdx,
    * conf, ts); output: one row per (matcherId, aIdx, bIdx) with the
    * conf, ts and seq of the most recent decision. Ties on ts break by seq.
    *
    * The latest decision is the arg-max of (ts, seq) in each group: `max`
    * over the struct (ts, seq, conf) compares ts first, then seq, and
    * carries the winner's conf. Spark compares doubles with -0.0 equal to
    * 0.0, as the Eq. 1 kernel `finalEntries` does. Because `max` is
    * nullable, so are conf, ts and seq in the output schema, though no row
    * holds a null.
    */
  def finalMatrix(decisions: DataFrame): DataFrame = {
    val slices = decisions.sparkSession.sparkContext.defaultParallelism
    decisions
      .repartition(slices, col("aIdx"), col("bIdx"))
      .groupBy("matcherId", "aIdx", "bIdx")
      .agg(max(struct("ts", "seq", "conf")).as("latest"))
      .select(col("matcherId"), col("aIdx"), col("bIdx"),
        col("latest.conf").as("conf"), col("latest.ts").as("ts"), col("latest.seq").as("seq"))
  }

  /** The match sigma: non-zero entries of the final matrix. */
  def sigma(decisions: DataFrame): DataFrame =
    finalMatrix(decisions).where(col("conf") > 0.0)

  /** Consensus pi per element pair: the number of matchers (in the given
    * population — the training set, per Section III-B) whose final matrix
    * includes the pair. Output columns: aIdx, bIdx, consensus. Sigma holds
    * one row per (matcherId, aIdx, bIdx), so its rows per pair are its
    * matchers per pair.
    */
  def consensus(decisions: DataFrame): DataFrame =
    sigma(decisions)
      .groupBy("aIdx", "bIdx")
      .agg(count(lit(1)).as("consensus"))

  /** Eq. 1 over one matcher's history: the latest decision per element
    * pair, ties on ts broken by seq (the rule of `finalMatrix`). The
    * entries come sorted by (aIdx, bIdx), whatever the input order.
    */
  def finalEntries(history: Seq[Decision]): Vector[Decision] =
    history.groupMapReduce(d => (d.aIdx, d.bIdx))(identity) { (x, y) =>
      if (y.ts > x.ts || (y.ts == x.ts && y.seq > x.seq)) y else x
    }.values.toVector.sortBy(d => (d.aIdx, d.bIdx))

  /** `consensus` over in-memory histories, one per matcher: pair -> the
    * number of histories whose final matrix holds the pair with conf > 0.
    */
  def consensusOf(histories: Iterable[Seq[Decision]]): Map[(Int, Int), Long] = {
    val counts = scala.collection.mutable.HashMap.empty[(Int, Int), Long]
    for (h <- histories; d <- finalEntries(h) if d.conf > 0.0) {
      val pair = (d.aIdx, d.bIdx)
      counts(pair) = counts.getOrElse(pair, 0L) + 1L
    }
    counts.toMap
  }
}
