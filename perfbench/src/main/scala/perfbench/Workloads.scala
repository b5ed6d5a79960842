package perfbench

import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.Oracle
import repro.core._
import repro.synth.{MatcherSim, StudyData}

/** The outputs of one pass, checked after its timed region ends. */
trait Pass {
  /** Named output checks; `false` is a failed check. */
  def checks(): Vector[(String, Boolean)]
  /** Digest of every output cell, equal across passes of one seed. */
  def digest: String
  /** Work counts (`work.*`), exact for a seed, and quality figures. */
  def figures: Map[String, Double]
  /** Checks against the DuckDB oracle, run once per benchmark run. */
  def oracleChecks(): Vector[(String, Boolean)]
  /** Drops the pass's cached Spark state so the next pass starts cold. */
  def release(): Unit
}

/** One workload: inputs simulated once from the seed, then any number of
  * independent passes, each over a fresh [[StudyHandle]].
  */
trait Workload {
  def pass(spans: Spans): Pass
}

object Workload {
  /** Population sizes and network settings; `smoke` shrinks both so a
    * test can run every workload in seconds.
    */
  def apply(name: String, spark: SparkSession, seed: Long, smoke: Boolean): Workload =
    name match {
      case "fold_po" =>
        val cfg = if (smoke) NeuralFeatures.Config(lstmEpochs = 1, lstmHidden = 4,
          cnnEpochs = 1, cnnFilters = 1) else FoldPo.Cfg
        new FoldPo(spark, MatcherSim.poStudy(if (smoke) 20 else 106, seed), cfg, seed)
      case "etl_crowd" =>
        new EtlCrowd(spark, MatcherSim.poStudy(if (smoke) 20 else EtlCrowd.Matchers, seed), seed)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }

  def digest(lines: Iterable[String]): String =
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .take(8).map(b => f"$b%02x").mkString

  def finite(xs: Iterable[Double]): Boolean = xs.forall(x => !x.isNaN && !x.isInfinite)

  def unit(xs: Iterable[Double]): Boolean = xs.forall(x => x >= 0.0 && x <= 1.0)

  def attempt(name: String)(check: => Unit): (String, Boolean) =
    try { check; name -> true }
    catch {
      case e: Exception =>
        Console.err.println(s"check $name failed: ${e.getMessage}")
        name -> false
    }

  /** Builds a fresh handle and forces its five aggregates, one span each. */
  def openStudy(spark: SparkSession, study: StudyData, spans: Spans): StudyHandle = {
    val h = spans("study.handle_s")(new StudyHandle(spark, study))
    spans("study.measures_s")(h.measures)
    spans("study.baseFeatures_s")(h.baseFeatures)
    spans("study.heatMaps_s")(h.heatMaps)
    spans("study.warmupMeasures_s")(h.warmupMeasures)
    spans("study.meanConf_s")(h.meanConf)
    h
  }

  def release(h: StudyHandle): Unit =
    Seq(h.decisions, h.mouse, h.reference, h.warmup).foreach(_.unpersist(blocking = true))

  def studyFigures(s: StudyData): Map[String, Double] = Map(
    "work.matchers" -> s.traits.size.toDouble,
    "work.decisions" -> s.decisions.size.toDouble,
    "work.mouse_events" -> s.mouse.size.toDouble,
  )
}

/** One Table IIa fold of the PO study: fold 0 of 5, with the baselines,
  * the Table III ablation and Table IV importance on that fold alone.
  */
final class FoldPo(spark: SparkSession, study: StudyData, cfg: NeuralFeatures.Config,
                   seed: Long) extends Workload {
  import Workload._

  def pass(spans: Spans): Pass = {
    val h = openStudy(spark, study, spans)
    val (trainIds, testIds) = Experiments.foldSplits(h.matcherIds, 5, seed).head
    val a = spans("fold.computeFold_s")(
      Experiments.computeFold(spark, h, h, trainIds, testIds, cfg, FoldPo.FoldSeed))
    val baselines = spans("fold.baselineRows_s")(
      Experiments.baselineRows(h, h, a, FoldPo.FoldSeed + 1000))
    val t3 = spans("fold.tableIII_s")(Experiments.tableIII(Vector(a)))
    val t4 = spans("fold.tableIV_s")(Experiments.tableIV(Vector(a)))
    val mexi = Vector(
      Experiments.TableRow("MExI_0", a.fitNone.accuracies),
      Experiments.TableRow("MExI_50", a.fit50.accuracies),
      Experiments.TableRow("MExI_70", a.fit70.accuracies))
    val iia = baselines ++ mexi
    val prepared = Vector(a.pNone, a.p50, a.p70)

    new Pass {
      def checks(): Vector[(String, Boolean)] = Vector(
        "iia.rows" -> (iia.size == 10),
        "iii.rows" -> (t3.size == 11),
        "iv.cells" -> (t4.size == 20 && t4.values.forall(_.nonEmpty)),
        "predictions.cover_test" -> Vector(a.fitNone, a.fit50, a.fit70).forall(f =>
          f.predictions.keySet == testIds.toSet &&
            f.predictions.values.forall(_.length == Labels.Count)),
        "acc.finite_unit" -> (iia ++ t3).forall(r => finite(r.acc.toSeq) && unit(r.acc.toSeq)),
        "features.finite" -> (finite(h.baseFeatures.rows.values.flatten) &&
          prepared.forall(p => finite(p.features.rows.values.flatten))),
      )

      val digest: String = Workload.digest(
        (iia ++ t3).map(r => s"${r.method} ${r.acc.toSeq.mkString(" ")}") ++
          t4.toVector.sortBy(_._1).map { case ((s, l), ns) => s"$s/$l ${ns.mkString(",")}" })

      val figures: Map[String, Double] = studyFigures(study) ++ Map(
        "work.lstm_seqs" -> prepared.map(_.nLstmTrainSeqs).sum.toDouble,
        "a_ml" -> mexi.map(_.acc.aML).sum / mexi.size,
      )

      def oracleChecks(): Vector[(String, Boolean)] = Vector.empty

      def release(): Unit = Workload.release(h)
    }
  }
}

object FoldPo {
  /** Network settings of the fold; see BENCHMARK.json for why they are
    * smaller than the paper tables'.
    */
  val Cfg: NeuralFeatures.Config =
    NeuralFeatures.Config(lstmEpochs = 1, lstmHidden = 16, cnnEpochs = 1, cnnFilters = 3)
  /** The seed Table IIa gives fold 0; fixed so only the inputs vary. */
  val FoldSeed = 77L
}

/** The relational/UDF layer alone on a large crowd: the study aggregates,
  * the consensus, every matcher's LSTM input sequence and the fused vote
  * of a matcher subset. No networks and no classifiers.
  */
final class EtlCrowd(spark: SparkSession, study: StudyData, seed: Long) extends Workload {
  import Workload._

  private val subset: Set[Long] = {
    val ids = study.traits.map(_.matcherId)
    new scala.util.Random(seed).shuffle(ids).take(ids.size / 2).toSet
  }

  def pass(spans: Spans): Pass = {
    val h = openStudy(spark, study, spans)
    val consensus = spans("etl.consensus_s") {
      val c = MatrixOps.consensus(h.decisions).cache()
      c.count()
      c
    }
    val seqs = spans("etl.sequences_s")(
      SeqFeatures.sequences(h.decisions, consensus, h.matcherIds.size))
    val (fusedP, fusedR) = spans("etl.fused_s")(ExpertFilter.fusedQuality(
      ExpertFilter.fusedMatch(h.decisions, subset, voteFrac = 0.4),
      h.reference, study.task.reference.size))

    new Pass {
      private lazy val consensusRows = consensus.collect()
        .map(r => (r.getInt(0), r.getInt(1), r.getLong(2))).sorted.toVector
      private val lengths = study.decisions.groupBy(_.matcherId).view.mapValues(_.size).toMap

      def checks(): Vector[(String, Boolean)] = Vector(
        "measures.finite" -> (h.measures.size == h.matcherIds.size &&
          h.measures.values.forall(m => finite(Seq(m.precision, m.recall, m.resolution,
            m.resolutionP, m.calibration)))),
        "features.finite" -> (h.baseFeatures.rows.size == h.matcherIds.size &&
          finite(h.baseFeatures.rows.values.flatten)),
        "heatmaps.finite" -> finite(h.heatMaps.values.flatten.flatten),
        "meanConf.unit" -> (h.meanConf.size == h.matcherIds.size && unit(h.meanConf.values)),
        "consensus.range" -> consensusRows.forall { case (_, _, c) =>
          c >= 1 && c <= h.matcherIds.size },
        "sequences.cover" -> (seqs.keySet == h.matcherIds.toSet &&
          seqs.forall { case (id, s) => s.size == lengths(id) }),
        "sequences.unit" -> seqs.values.forall(s => s.forall(x => finite(x) && unit(x))),
        "fused.unit" -> unit(Seq(fusedP, fusedR)),
      )

      lazy val digest: String = Workload.digest(
        h.measures.toVector.sortBy(_._1).map(_.toString) ++
          h.baseFeatures.rows.toVector.sortBy(_._1)
            .map { case (id, f) => s"$id ${f.mkString(" ")}" } ++
          h.meanConf.toVector.sortBy(_._1).map(_.toString) ++
          consensusRows.map(_.toString) ++
          seqs.toVector.sortBy(_._1)
            .map { case (id, s) => s"$id ${s.map(_.mkString(",")).mkString(" ")}" } ++
          Vector(s"fused $fusedP $fusedR"))

      val figures: Map[String, Double] = studyFigures(study) ++ Map(
        "work.lstm_seqs" -> 0.0, "a_ml" -> 0.0)

      /** DuckDB recomputes the consensus of a seed-chosen tenth of the
        * element pairs and the mean confidence of a tenth of the matchers
        * from the raw decisions; the pass's outputs must match on them.
        */
      def oracleChecks(): Vector[(String, Boolean)] = {
        import org.apache.spark.sql.functions.col
        import spark.implicits._
        val pairSampled = (col("aIdx") * 31 + col("bIdx") + seed) % 10 === 0
        val matcherSampled = (col("matcherId") + seed) % 10 === 0
        Vector(
          attempt("oracle.consensus")(Oracle.assertEquivalent(consensus.where(pairSampled),
            """SELECT CAST(aIdx AS INTEGER) AS aIdx, CAST(bIdx AS INTEGER) AS bIdx,
              |       count(DISTINCT matcherId) AS consensus
              |FROM (SELECT *, row_number() OVER (PARTITION BY matcherId, aIdx, bIdx
              |        ORDER BY CAST(ts AS DOUBLE) DESC, CAST(seq AS INTEGER) DESC) AS rn
              |      FROM decisions) t
              |WHERE rn = 1 AND CAST(conf AS DOUBLE) > 0
              |GROUP BY aIdx, bIdx""".stripMargin,
            "decisions" -> h.decisions.where(pairSampled))),
          attempt("oracle.meanConf")(Oracle.assertEquivalent(
            h.meanConf.toSeq.toDF("matcherId", "c").where(matcherSampled),
            """SELECT CAST(matcherId AS BIGINT) AS matcherId, avg(CAST(conf AS DOUBLE)) AS c
              |FROM decisions GROUP BY matcherId""".stripMargin,
            "decisions" -> h.decisions.where(matcherSampled).select("matcherId", "conf"))),
        )
      }

      def release(): Unit = { consensus.unpersist(blocking = true); Workload.release(h) }
    }
  }
}

object EtlCrowd {
  /** Crowd size: about five times the PO population. */
  val Matchers = 500
}
