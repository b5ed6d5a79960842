package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.{Oracle, SparkSpec}
import repro.synth.MatcherSim
import scala.jdk.CollectionConverters._

/** The per-history kernels (`MatrixOps.finalEntries`/`consensusOf`,
  * `Measures.of`, `SeqFeatures.of`, `Predictors.of`, `BehavioralFeatures.of`,
  * `MouseFeatures.of`, `HeatMap.of`) against the Spark stages and the
  * DuckDB oracle on a small PO study, and their independence of input
  * order.
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

  private def bitsOf(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Per-matcher kernel output as a DataFrame: `matcherid` plus one column
    * per feature name.
    */
  private def frame(names: Seq[String], rows: Iterable[(Long, Array[Double])]): DataFrame =
    spark.createDataFrame(
      rows.toSeq.map { case (id, f) => Row.fromSeq(id +: f.toSeq) }.asJava,
      StructType(StructField("matcherid", LongType) +: names.map(StructField(_, DoubleType))))

  /** Mouse events of a quarter of the matchers, which keeps the oracle's
    * tables small.
    */
  private lazy val sampledColumns = study.mouse.byMatcher.filter(_._1 % 4 == 0)
  private lazy val sampledMouse = MouseStream.of(sampledColumns).events.toVector

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
    val sparkMeanConf = handle.decisions.groupBy("matcherId")
      .agg(org.apache.spark.sql.functions.avg("conf")).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    handle.measures.values.foreach { m =>
      val sparkCal = sparkMeanConf(m.matcherId) - m.precision
      assert(math.abs(m.calibration - sparkCal) <= 1e-12, s"matcher ${m.matcherId}")
    }
  }

  test("Measures.of calibration is meanConf minus P bitwise") {
    handle.measures.values.foreach { m =>
      assert(m.calibration === handle.meanConf(m.matcherId) - m.precision, s"matcher ${m.matcherId}")
    }
  }

  test("oracle: meanConf agrees with DuckDB avg") {
    Oracle.assertEquivalent(handle.meanConf.toSeq.toDF("matcherid", "c"),
      """SELECT CAST(matcherId AS BIGINT) AS matcherid, avg(CAST(conf AS DOUBLE)) AS c
        |FROM decisions GROUP BY matcherId""".stripMargin,
      "decisions" -> handle.decisions.select("matcherId", "conf"))
  }

  test("oracle: BehavioralFeatures.of agrees with DuckDB, gaps, stddevs and slopes included") {
    val kernel = frame(BehavioralFeatures.names,
      histories.map { case (id, h) => id -> BehavioralFeatures.of(h) })
    Oracle.assertEquivalent(kernel,
      """WITH d AS (
        |  SELECT CAST(matcherId AS BIGINT) AS m, CAST(seq AS INTEGER) AS seq,
        |         aIdx || '_' || bIdx AS pair, CAST(conf AS DOUBLE) AS conf,
        |         CAST(ts AS DOUBLE) AS ts
        |  FROM decisions),
        |g AS (SELECT *, ts - lag(ts) OVER (PARTITION BY m ORDER BY seq) AS gap FROM d),
        |a AS (
        |  SELECT m, CAST(count(*) AS DOUBLE) AS cnt, CAST(count(DISTINCT pair) AS DOUBLE) AS dst,
        |         avg(conf) AS avgc, coalesce(stddev_samp(conf), 0) AS stdc,
        |         min(conf) AS minc, max(conf) AS maxc,
        |         coalesce(avg(gap), 0) AS avgt, coalesce(max(gap), 0) AS maxt,
        |         coalesce(stddev_samp(gap), 0) AS stdt, max(ts) - min(ts) AS tot,
        |         avg(seq * seq) - avg(seq) * avg(seq) AS vs,
        |         avg(seq * conf) - avg(seq) * avg(conf) AS cc,
        |         avg(seq * gap) - avg(seq) * avg(gap) AS cg
        |  FROM g GROUP BY m)
        |SELECT m AS matcherid, cnt AS "beh_count", dst AS "beh_distinctCorr",
        |       cnt - dst AS "beh_mindChanges", avgc AS "beh_avgConf", stdc AS "beh_stdConf",
        |       minc AS "beh_minConf", maxc AS "beh_maxConf", avgt AS "beh_avgTime",
        |       maxt AS "beh_maxTime", stdt AS "beh_stdTime", tot AS "beh_totalTime",
        |       CASE WHEN vs > 0 THEN cc / vs ELSE 0 END AS "beh_confSlope",
        |       coalesce(CASE WHEN vs > 0 THEN cg / vs ELSE 0 END, 0) AS "beh_gapSlope"
        |FROM a""".stripMargin,
      "decisions" -> handle.decisions)
  }

  test("oracle: MouseFeatures.of agrees with DuckDB, path length and stddevs included") {
    val kernel = frame(MouseFeatures.names,
      sampledColumns.map { case (id, es) => id -> MouseFeatures.of(es) })
    Oracle.assertEquivalent(kernel,
      """WITH e AS (
        |  SELECT CAST(matcherId AS BIGINT) AS m, CAST(x AS DOUBLE) AS x,
        |         CAST(y AS DOUBLE) AS y, kind, CAST(ts AS DOUBLE) AS ts
        |  FROM mouse),
        |s AS (
        |  SELECT *, sqrt((x - lag(x) OVER w) * (x - lag(x) OVER w) +
        |                 (y - lag(y) OVER w) * (y - lag(y) OVER w)) AS step
        |  FROM e WINDOW w AS (PARTITION BY m ORDER BY ts, x, y))
        |SELECT m AS matcherid, CAST(count(*) AS DOUBLE) AS "mou_total",
        |  CAST(sum(CASE WHEN kind = 'move' THEN 1 ELSE 0 END) AS DOUBLE) AS "mou_moves",
        |  CAST(sum(CASE WHEN kind = 'left' THEN 1 ELSE 0 END) AS DOUBLE) AS "mou_lefts",
        |  CAST(sum(CASE WHEN kind = 'right' THEN 1 ELSE 0 END) AS DOUBLE) AS "mou_rights",
        |  CAST(sum(CASE WHEN kind = 'scroll' THEN 1 ELSE 0 END) AS DOUBLE) AS "mou_scrolls",
        |  CAST(sum(CASE WHEN kind = 'scroll' THEN 1 ELSE 0 END) AS DOUBLE) / count(*)
        |    AS "mou_scrollRatio",
        |  coalesce(sum(step), 0) AS "mou_totalLength",
        |  avg(x) AS "mou_avgX", avg(y) AS "mou_avgY",
        |  coalesce(stddev_samp(x), 0) AS "mou_stdX", coalesce(stddev_samp(y), 0) AS "mou_stdY",
        |  max(ts) - min(ts) AS "mou_totalTime",
        |  coalesce(sum(step), 0) / (max(ts) - min(ts) + 1) AS "mou_avgSpeed"
        |FROM s GROUP BY m""".stripMargin,
      "mouse" -> sampledMouse.toDF())
  }

  test("oracle: HeatMap.of cells agree with a DuckDB GROUP BY") {
    val task = study.task
    val kernel = sampledColumns.toSeq.flatMap { case (id, es) =>
      for {
        (kind, grid) <- HeatMap.of(es, task.screenW, task.screenH).toSeq
        r <- grid.indices
        c <- grid(r).indices if grid(r)(c) > 0
      } yield (id, kind, r, c, grid(r)(c))
    }.toDF("matcherid", "kind", "r", "c", "v")
    Oracle.assertEquivalent(kernel,
      s"""WITH cells AS (
         |  SELECT CAST(matcherId AS BIGINT) AS matcherid, kind,
         |         CAST(least(${HeatMap.GridH - 1},
         |           floor(CAST(y AS DOUBLE) / ${task.screenH} * ${HeatMap.GridH})) AS INTEGER) AS r,
         |         CAST(least(${HeatMap.GridW - 1},
         |           floor(CAST(x AS DOUBLE) / ${task.screenW} * ${HeatMap.GridW})) AS INTEGER) AS c,
         |         count(*) AS n
         |  FROM mouse GROUP BY 1, 2, 3, 4)
         |SELECT matcherid, kind, r, c,
         |       CAST(n AS DOUBLE) / max(n) OVER (PARTITION BY matcherid, kind) AS v
         |FROM cells""".stripMargin,
      "mouse" -> sampledMouse.toDF())
  }

  test("Predictors.of breaks bbm ties at conf 1.0 in (aIdx, bIdx) order") {
    // Every final confidence is 1.0. In (aIdx, bIdx) order the greedy
    // matching keeps (0,0), which blocks (0,1) and (1,0): bbm = 1/3. Taking
    // (0,1) first would keep (0,1) and (1,0) instead: bbm = 2/3.
    val h = Vector(
      Decision(1L, 0, 1, 0, 1.0, 1.0),
      Decision(1L, 1, 0, 1, 1.0, 2.0),
      Decision(1L, 2, 0, 0, 1.0, 3.0))
    val bbm = Predictors.names.indexOf("lrsm_bbm")
    assert(Predictors.fromEntries(Seq((0, 1, 1.0), (1, 0, 1.0), (0, 0, 1.0)), 3, 3)(bbm) === 2.0 / 3)
    h.permutations.foreach(p => assert(Predictors.of(p, 3, 3)(bbm) === 1.0 / 3, p))
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
      assert(bitsOf(Predictors.of(s, task.nA, task.nB)) === bitsOf(Predictors.of(h, task.nA, task.nB)))
      assert(bitsOf(BehavioralFeatures.of(s)) === bitsOf(BehavioralFeatures.of(h)))
      assert(Measures.meanConfidence(s) === Measures.meanConfidence(h))
    }
    def grids(maps: Map[String, Array[Array[Double]]]) = maps.view.mapValues(_.map(_.toSeq).toSeq).toMap
    study.mouse.byMatcher.foreach { case (id, es) =>
      val s = es.select(shuffled(0 until es.size, id).toArray)
      assert(bitsOf(MouseFeatures.of(s)) === bitsOf(MouseFeatures.of(es)))
      assert(grids(HeatMap.of(s, task.screenW, task.screenH)) ===
        grids(HeatMap.of(es, task.screenW, task.screenH)))
    }
    val reordered = shuffled(histories.values.toSeq, 7L).zipWithIndex
      .map { case (h, i) => shuffled(h, i.toLong) }
    assert(MatrixOps.consensusOf(reordered) === cons)
  }
}
