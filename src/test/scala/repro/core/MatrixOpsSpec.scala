package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.{REPARTITION_BY_NUM, ShuffleExchangeExec}
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.{Oracle, SparkSpec}
import repro.synth.MatcherSim

class MatrixOpsSpec extends SparkSpec {
  import spark.implicits._

  /** The paper's Table I history (Example 1): M34@3 conf 1.0, M11@8 conf
    * 0.9, M12@15 conf 0.5, M11@16 conf 0.5 (revisit), M21@34 conf 0.45.
    */
  private def tableI = Seq(
    Decision(1L, 0, 3, 4, 1.0, 3.0),
    Decision(1L, 1, 1, 1, 0.9, 8.0),
    Decision(1L, 2, 1, 2, 0.5, 15.0),
    Decision(1L, 3, 1, 1, 0.5, 16.0),
    Decision(1L, 4, 2, 1, 0.45, 34.0),
  ).toDF()

  test("Eq. 1: the final matrix keeps the latest confidence per entry") {
    val m = MatrixOps.finalMatrix(tableI).collect()
      .map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) -> r.getAs[Double]("conf"))
      .toMap
    assert(m.size === 4)
    assert(m((3, 4)) === 1.0)
    assert(m((1, 1)) === 0.5) // revisit at t=16 overrides 0.9 at t=8
    assert(m((1, 2)) === 0.5)
    assert(m((2, 1)) === 0.45)
    assert(MatrixOps.finalEntries(tableI.as[Decision].collect().toSeq)
      .map(d => (d.aIdx, d.bIdx) -> d.conf).toMap === m)
  }

  test("final matrix keeps matchers separate") {
    val two = tableI.union(Seq(Decision(2L, 0, 1, 1, 0.8, 1.0)).toDF())
    val m = MatrixOps.finalMatrix(two)
    assert(m.where(col("matcherId") === 2L).count() === 1)
    assert(m.where(col("matcherId") === 1L).count() === 4)
  }

  test("ties on ts break by seq (later decision wins)") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.3, 5.0),
      Decision(1L, 1, 0, 0, 0.7, 5.0),
    ).toDF()
    val m = MatrixOps.finalMatrix(df).collect()
    assert(m.length === 1 && m.head.getAs[Double]("conf") === 0.7)
    val k = MatrixOps.finalEntries(df.as[Decision].collect().toSeq.reverse)
    assert(k.map(_.conf) === Vector(0.7))
  }

  test("sigma drops zero-confidence entries") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.4, 1.0),
      Decision(1L, 1, 0, 0, 0.0, 2.0), // later decision retracts the pair
      Decision(1L, 2, 1, 1, 0.6, 3.0),
    ).toDF()
    val s = MatrixOps.sigma(df).collect()
    assert(s.length === 1)
    assert(s.head.getAs[Int]("aIdx") === 1)
  }

  test("consensus counts matchers per final pair") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(2L, 0, 0, 0, 0.8, 1.0),
      Decision(2L, 1, 1, 1, 0.7, 2.0),
      Decision(3L, 0, 0, 0, 0.6, 1.0),
    ).toDF()
    val c = MatrixOps.consensus(df).collect()
      .map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) -> r.getAs[Long]("consensus"))
      .toMap
    assert(c((0, 0)) === 3L)
    assert(c((1, 1)) === 1L)
  }

  test("consensus counts a matcher once even with revisits") {
    val df = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.8, 2.0),
    ).toDF()
    val c = MatrixOps.consensus(df).collect()
    assert(c.length === 1 && c.head.getAs[Long]("consensus") === 1L)
  }

  test("oracle: final matrix equals DuckDB's latest-decision query") {
    val decisions = tableI.union(Seq(
      Decision(2L, 0, 0, 5, 0.25, 1.0),
      Decision(2L, 1, 0, 5, 0.75, 9.0),
    ).toDF()).cache()
    val spark2 = MatrixOps.finalMatrix(decisions)
      .select(col("matcherId").cast("string").as("matcherid"),
        col("aIdx").cast("string").as("aidx"),
        col("bIdx").cast("string").as("bidx"),
        col("conf").cast("double").as("conf"))
    Oracle.assertEquivalent(
      spark2,
      """SELECT matcherId AS matcherid, aIdx AS aidx, bIdx AS bidx,
        |       CAST(conf AS DOUBLE) AS conf
        |FROM (SELECT *, ROW_NUMBER() OVER (
        |        PARTITION BY matcherId, aIdx, bIdx
        |        ORDER BY CAST(ts AS DOUBLE) DESC, CAST(seq AS INT) DESC) rn
        |      FROM decisions)
        |WHERE rn = 1""".stripMargin,
      "decisions" -> decisions,
    )
  }

  test("oracle: consensus equals DuckDB's grouped count") {
    val decisions = Seq(
      Decision(1L, 0, 0, 0, 0.9, 1.0),
      Decision(1L, 1, 0, 0, 0.8, 2.0),
      Decision(2L, 0, 0, 0, 0.7, 1.0),
      Decision(2L, 1, 2, 2, 0.6, 2.0),
    ).toDF().cache()
    val sparkDf = MatrixOps.consensus(decisions)
      .select(col("aIdx").cast("string").as("aidx"),
        col("bIdx").cast("string").as("bidx"),
        col("consensus").cast("long").as("consensus"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT aIdx AS aidx, bIdx AS bidx,
        |       COUNT(DISTINCT matcherId) AS consensus
        |FROM (SELECT *, ROW_NUMBER() OVER (
        |        PARTITION BY matcherId, aIdx, bIdx
        |        ORDER BY CAST(ts AS DOUBLE) DESC) rn
        |      FROM decisions)
        |WHERE rn = 1 AND CAST(conf AS DOUBLE) > 0
        |GROUP BY aIdx, bIdx""".stripMargin,
      "decisions" -> decisions,
    )
  }

  // --- Eq. 1 as an arg-max aggregate, against the row_number window ---

  /** Eq. 1 as a `row_number` window over (ts desc, seq desc), the plan
    * `finalMatrix` had before the arg-max aggregate, kept as its reference.
    */
  private def windowFinalMatrix(decisions: DataFrame): DataFrame = {
    val w = Window.partitionBy("matcherId", "aIdx", "bIdx")
      .orderBy(col("ts").desc, col("seq").desc)
    val slices = decisions.sparkSession.sparkContext.defaultParallelism
    decisions
      .repartition(slices, col("aIdx"), col("bIdx"))
      .withColumn("rn", row_number().over(w))
      .where(col("rn") === 1)
      .select("matcherId", "aIdx", "bIdx", "conf", "ts", "seq")
  }

  /** The rows of a final matrix, sorted by key, with conf and ts as raw
    * bits.
    */
  private def rawRows(df: DataFrame): Seq[(Long, Int, Int, Long, Long, Int)] = {
    def raw(r: Row, name: String) = java.lang.Double.doubleToRawLongBits(r.getAs[Double](name))
    df.collect().toSeq.map(r => (r.getAs[Long]("matcherId"), r.getAs[Int]("aIdx"),
      r.getAs[Int]("bIdx"), raw(r, "conf"), raw(r, "ts"), r.getAs[Int]("seq"))).sorted
  }

  /** Histories of 1 to 4 matchers over a 3 x 3 grid, so pairs are revisited,
    * with ts drawn from a small set that holds -0.0 and 0.0, so ties on ts
    * are common and break by seq. The ts need not grow with seq.
    */
  private val decisionSets: Gen[Seq[Decision]] = for {
    nMatchers <- Gen.choose(1, 4)
    histories <- Gen.listOfN(nMatchers, Gen.choose(1, 14).flatMap(n => Gen.listOfN(n, for {
      a <- Gen.choose(0, 2)
      b <- Gen.choose(0, 2)
      conf <- Gen.oneOf(0.0, 0.25, 0.5, 1.0)
      ts <- Gen.oneOf(-0.0, 0.0, 1.0, 1.5, 2.0)
    } yield (a, b, conf, ts))))
  } yield histories.zipWithIndex.flatMap { case (h, m) =>
    h.zipWithIndex.map { case ((a, b, conf, ts), seq) => Decision(m.toLong, seq, a, b, conf, ts) }
  }

  test("finalMatrix equals the row_number window bit for bit under 1, 3 and 8 input slices") {
    val params = Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(17L))
    val res = Test.check(params, Prop.forAllNoShrink(decisionSets) { ds =>
      val df = ds.toDF()
      Prop.all(Seq(1, 3, 8).map { slices =>
        val in = df.repartition(slices)
        Prop(rawRows(MatrixOps.finalMatrix(in)) == rawRows(windowFinalMatrix(in))) :| s"$slices slices"
      }: _*)
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("finalMatrix keeps the column names and types of the row_number window") {
    def types(df: DataFrame) = df.schema.map(f => f.name -> f.dataType)
    assert(types(MatrixOps.finalMatrix(tableI)) === types(windowFinalMatrix(tableI)))
  }

  test("a ts tie between -0.0 and 0.0 breaks by seq, in finalMatrix as in finalEntries") {
    val ds = Seq(Decision(1L, 0, 0, 0, 0.3, 0.0), Decision(1L, 1, 0, 0, 0.7, -0.0))
    val raw = java.lang.Double.doubleToRawLongBits _
    assert(rawRows(MatrixOps.finalMatrix(ds.toDF())) === Seq((1L, 0, 0, raw(0.7), raw(-0.0), 1)))
    assert(MatrixOps.finalEntries(ds) === Vector(ds(1)))
  }

  // --- the relational stages' plans, and their independence of layout ---

  private lazy val handle = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 12, seed = 41L))
  private lazy val selected = handle.matcherIds.take(7).toSet

  private object Plans extends AdaptiveSparkPlanHelper

  /** The operators of `df`'s final plan after a `collect()`, those inside
    * the adaptive query stages included.
    */
  private def operators(df: DataFrame): Seq[SparkPlan] = {
    df.collect()
    Plans.collect(df.queryExecution.executedPlan) { case p => p }
  }

  /** The shuffle exchanges among `ops`, as (origin, keys, slices). */
  private def exchanges(ops: Seq[SparkPlan]): Seq[(String, Seq[String], Int)] =
    ops.collect { case e: ShuffleExchangeExec =>
      e.outputPartitioning match {
        case HashPartitioning(keys, n) =>
          (e.shuffleOrigin.toString, keys.map { case a: Attribute => a.name }, n)
        case other => (e.shuffleOrigin.toString, Seq(other.toString), other.numPartitions)
      }
    }

  test("consensus and fusedMatch each shuffle once, by element pair, at the machine's width") {
    val n = spark.sparkContext.defaultParallelism
    // Spark plans a repartition into one slice as a single partition.
    val once = Seq((REPARTITION_BY_NUM.toString,
      if (n == 1) Seq("SinglePartition") else Seq("aIdx", "bIdx"), n))
    val stages = Seq("consensus" -> MatrixOps.consensus(handle.decisions),
      "fusedMatch" -> ExpertFilter.fusedMatch(handle.decisions, selected, 0.4))
    for ((name, df) <- stages) {
      val ops = operators(df)
      assert(exchanges(ops) === once, name)
      // Eq. 1 is an aggregate and pi a plain count, over uncached views.
      assert(!ops.exists(_.isInstanceOf[WindowExec]), name)
      assert(!ops.exists {
        case a: BaseAggregateExec => a.aggregateExpressions.exists(_.isDistinct)
        case _ => false
      }, name)
      assert(!ops.exists(_.isInstanceOf[InMemoryTableScanExec]), name)
    }
  }

  private def consensusMap(df: DataFrame): Map[(Int, Int), Long] =
    df.collect().map(r => (r.getAs[Int]("aIdx"), r.getAs[Int]("bIdx")) ->
      r.getAs[Long]("consensus")).toMap

  private def bits(s: IndexedSeq[Array[Double]]): Seq[Seq[Long]] =
    s.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  /** `body` with `spark.sql.shuffle.partitions` set to `n`, then restored. */
  private def withShufflePartitions[A](n: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    spark.conf.set(key, n.toString)
    try body finally spark.conf.set(key, old)
  }

  test("consensus, fusedMatch and sequences equal their kernels under any partition layout") {
    val hs = handle.historyByMatcher
    val cons = MatrixOps.consensusOf(hs.values)
    val seqs = hs.map { case (id, h) => id -> bits(SeqFeatures.of(h, cons, hs.size)) }
    val fused = ExpertFilter.fusedMatchOf(hs, selected, 0.4)
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    for (partitions <- Seq(1, 7, 64); slices <- Seq(1, 3, 8)) withShufflePartitions(partitions) {
      val where = s"$partitions shuffle partitions, $slices input slices"
      val ds = handle.decisions.repartition(slices)
      val c = MatrixOps.consensus(ds)
      assert(consensusMap(c) === cons, where)
      assert(SeqFeatures.sequences(ds, c, hs.size).view.mapValues(bits).toMap === seqs, where)
      assert(ExpertFilter.fusedMatch(ds, selected, 0.4).collect()
        .map(r => (r.getInt(0), r.getInt(1))).toSet === fused, where)
    }
    assert(spark.conf.get("spark.sql.shuffle.partitions") === before)
  }
}
