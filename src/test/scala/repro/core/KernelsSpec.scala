package repro.core

import repro.{Oracle, SparkSpec}
import repro.synth.MatcherSim

/** The per-history kernels (`MatrixOps.finalEntries`/`consensusOf`,
  * `Measures.of`, `SeqFeatures.of`) against the Spark stages and the DuckDB
  * oracle on a small PO study, and their independence of input order.
  */
class KernelsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val study = MatcherSim.poStudy(nMatchers = 16, seed = 31L)
  private lazy val handle = new StudyHandle(spark, study)
  private def histories = handle.historyByMatcher

  private def consensusRows(df: org.apache.spark.sql.DataFrame): Map[(Int, Int), Long] =
    df.collect().map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) ->
      r.getAs[Long]("consensus")).toMap

  private def bits(s: IndexedSeq[Array[Double]]): Seq[Seq[Long]] =
    s.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  private def shuffled[A](xs: Seq[A], seed: Long): Vector[A] =
    new scala.util.Random(seed).shuffle(xs.toVector)

  test("consensusOf equals MatrixOps.consensus exactly") {
    assert(MatrixOps.consensusOf(histories.values) ===
      consensusRows(MatrixOps.consensus(handle.decisions)))
  }

  test("SeqFeatures.of equals SeqFeatures.sequences bitwise") {
    val consensus = MatrixOps.consensus(handle.decisions)
    val viaSpark = SeqFeatures.sequences(handle.decisions, consensus, histories.size)
    val cons = consensusRows(consensus)
    assert(viaSpark.keySet === histories.keySet)
    histories.foreach { case (id, h) =>
      assert(bits(SeqFeatures.of(h, cons, histories.size)) === bits(viaSpark(id)), s"matcher $id")
    }
  }

  test("oracle: Measures.of P, R and mean confidence agree with DuckDB") {
    val refSize = study.task.reference.size
    val kernel = handle.measures.values.toSeq
      .map(m => (m.matcherId, m.precision, m.recall, m.calibration + m.precision))
      .toDF("matcherid", "p", "r", "meanconf")
    Oracle.assertEquivalent(kernel,
      s"""WITH f AS (
         |  SELECT matcherId, aIdx, bIdx, CAST(conf AS DOUBLE) AS conf,
         |         ROW_NUMBER() OVER (PARTITION BY matcherId, aIdx, bIdx
         |           ORDER BY CAST(ts AS DOUBLE) DESC, CAST(seq AS INTEGER) DESC) AS rn
         |  FROM decisions),
         |s AS (
         |  SELECT f.matcherId, CASE WHEN r.aIdx IS NULL THEN 0 ELSE 1 END AS hit
         |  FROM f LEFT JOIN reference r ON f.aIdx = r.aIdx AND f.bIdx = r.bIdx
         |  WHERE rn = 1 AND conf > 0),
         |q AS (
         |  SELECT matcherId, CAST(sum(hit) AS DOUBLE) / count(*) AS p,
         |         CAST(sum(hit) AS DOUBLE) / $refSize AS r
         |  FROM s GROUP BY matcherId),
         |h AS (
         |  SELECT matcherId, avg(CAST(conf AS DOUBLE)) AS meanconf
         |  FROM decisions GROUP BY matcherId)
         |SELECT CAST(q.matcherId AS BIGINT) AS matcherid, p, r, meanconf
         |FROM q JOIN h ON q.matcherId = h.matcherId""".stripMargin,
      "decisions" -> handle.decisions, "reference" -> handle.reference)
  }

  test("Measures.of calibration is Spark's mean confidence minus P within 1e-12") {
    handle.measures.values.foreach { m =>
      val sparkCal = handle.meanConf(m.matcherId) - m.precision
      assert(math.abs(m.calibration - sparkCal) <= 1e-12, s"matcher ${m.matcherId}")
    }
  }

  test("every kernel returns identical output for a shuffled history") {
    val task = study.task
    val cons = MatrixOps.consensusOf(histories.values)
    histories.foreach { case (id, h) =>
      val s = shuffled(h, id)
      assert(MatrixOps.finalEntries(s) === MatrixOps.finalEntries(h))
      assert(Measures.of(id, s, task.referenceSet, task.reference.size) ===
        Measures.of(id, h, task.referenceSet, task.reference.size))
      assert(bits(SeqFeatures.of(s, cons, histories.size)) ===
        bits(SeqFeatures.of(h, cons, histories.size)))
    }
    val reordered = shuffled(histories.values.toSeq, 7L).zipWithIndex
      .map { case (h, i) => shuffled(h, i.toLong) }
    assert(MatrixOps.consensusOf(reordered) === cons)
  }
}
