package repro.core

import repro.{Oracle, SparkSpec}

class BehavioralFeaturesSpec extends SparkSpec {
  import spark.implicits._

  private def history = Seq(
    Decision(1L, 0, 0, 0, 0.8, 10.0),
    Decision(1L, 1, 1, 1, 0.6, 25.0),
    Decision(1L, 2, 0, 0, 0.4, 45.0), // revisit of (0,0)
  )

  private def feature(h: Seq[Decision], name: String): Double =
    BehavioralFeatures.of(h)(BehavioralFeatures.names.indexOf(name))

  private def row(name: String): Double = feature(history, name)

  test("counts, distinct pairs and mind changes") {
    assert(row("beh_count") === 3.0)
    assert(row("beh_distinctCorr") === 2.0)
    assert(row("beh_mindChanges") === 1.0)
  }

  test("confidence aggregates") {
    assert(math.abs(row("beh_avgConf") - 0.6) < 1e-12)
    assert(row("beh_minConf") === 0.4)
    assert(row("beh_maxConf") === 0.8)
    assert(math.abs(row("beh_stdConf") - 0.2) < 1e-12)
  }

  test("time aggregates use inter-decision gaps") {
    // Gaps: 15, 20.
    assert(math.abs(row("beh_avgTime") - 17.5) < 1e-12)
    assert(row("beh_maxTime") === 20.0)
    assert(math.abs(row("beh_totalTime") - 35.0) < 1e-12)
  }

  test("confidence slope captures the declining trend") {
    // conf = 0.8, 0.6, 0.4 over seq 0,1,2 -> slope -0.2.
    assert(math.abs(row("beh_confSlope") + 0.2) < 1e-9)
  }

  test("single-decision histories produce zero gaps and slopes, not nulls") {
    val one = Seq(Decision(5L, 0, 0, 0, 0.5, 3.0))
    assert(feature(one, "beh_avgTime") === 0.0)
    assert(feature(one, "beh_stdConf") === 0.0)
    assert(feature(one, "beh_confSlope") === 0.0)
    assert(feature(one, "beh_totalTime") === 0.0)
  }

  test("features are per matcher") {
    // The kernel sees one history; the handle applies it per matcher.
    val two = new StudyHandle(spark, repro.synth.MatcherSim.poStudy(nMatchers = 2, seed = 5L))
    two.historyByMatcher.foreach { case (id, h) =>
      assert(two.baseFeatures.vector(id).toSeq.slice(Predictors.names.size,
        Predictors.names.size + BehavioralFeatures.names.size) === BehavioralFeatures.of(h).toSeq)
    }
    assert(BehavioralFeatures.of(Seq.empty).toSeq === Seq.fill(BehavioralFeatures.names.size)(0.0))
  }

  test("declared names match the produced columns") {
    assert(BehavioralFeatures.of(history).length === BehavioralFeatures.names.length)
    assert(BehavioralFeatures.names.distinct === BehavioralFeatures.names)
  }

  test("oracle: count/avg/min/max/distinct agree with DuckDB") {
    val decisions = history ++ Seq(
      Decision(2L, 0, 3, 3, 1.0, 2.0),
      Decision(2L, 1, 3, 4, 0.2, 7.0),
    )
    val kernel = decisions.groupBy(_.matcherId).toSeq.map { case (id, h) =>
      def f(name: String) = feature(h, name)
      (id.toString, f("beh_count"), f("beh_distinctCorr"), f("beh_avgConf"),
        f("beh_minConf"), f("beh_maxConf"), f("beh_totalTime"))
    }.toDF("matcherid", "cnt", "dst", "avgc", "minc", "maxc", "tot")
    Oracle.assertEquivalent(
      kernel,
      """SELECT matcherId AS matcherid,
        |       CAST(COUNT(*) AS DOUBLE) AS cnt,
        |       CAST(COUNT(DISTINCT aIdx || '_' || bIdx) AS DOUBLE) AS dst,
        |       AVG(CAST(conf AS DOUBLE)) AS avgc,
        |       MIN(CAST(conf AS DOUBLE)) AS minc,
        |       MAX(CAST(conf AS DOUBLE)) AS maxc,
        |       MAX(CAST(ts AS DOUBLE)) - MIN(CAST(ts AS DOUBLE)) AS tot
        |FROM decisions GROUP BY matcherId""".stripMargin,
      "decisions" -> decisions.toDF(),
    )
  }
}
