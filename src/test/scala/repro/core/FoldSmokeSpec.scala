package repro.core

import repro.SparkSpec
import repro.synth.{MatcherSim, StudyData}

/** End-to-end smoke test of one Table IIa fold on a small PO study: the
  * fold, its baselines, the Table III ablation, Table IV importance and
  * early identification over truncated histories, with tiny networks. It
  * checks shapes and ranges, run-to-run equality, and that the fold path
  * submits no Spark job. It also runs the whole experiment,
  * `Experiments.run`, on that study and a small OAEI study.
  */
class FoldSmokeSpec extends SparkSpec {
  import FoldSmokeSpec.{Outcome, cfg, study}

  /** A fresh handle and one fold, with the Spark jobs submitted meanwhile. */
  private def runFold(): (StudyHandle, Outcome, Int) = {
    val ((h, out), jobs) = jobsDuring {
      val h = new StudyHandle(spark, study)
      val (trainIds, testIds) = Experiments.foldSplits(h.matcherIds, 5, seed = 3L).head
      val a = Experiments.computeFold(spark, h, h, trainIds, testIds, cfg, seed = 7L)
      (h, Outcome(a, Experiments.baselineRows(h, h, a, seed = 8L),
        Experiments.tableIII(Vector(a)), Experiments.tableIV(Vector(a)),
        Experiments.earlyPredictions(
          new StudyHandle(spark, ExpertFilter.truncateStudy(study, k = 10)), Vector(a))))
    }
    (h, out, jobs)
  }

  private lazy val (handle, first, firstJobs) = runFold()

  private def cells(o: Outcome): Seq[String] =
    (o.baselines ++ o.t3 ++ o.a.mexiRows).map(r => s"${r.method} ${r.acc}") ++
      o.t4.toSeq.sortBy(_._1).map(_.toString) ++
      Seq(o.a.fitNone.predictions, o.a.fit50.predictions, o.a.fit70.predictions, o.early)
        .flatMap(_.toSeq.sortBy(_._1).map { case (id, p) => s"$id ${p.mkString(",")}" })

  test("a fold yields every row and cell with accuracies in [0, 1]") {
    val a = first.a
    assert(first.baselines.size === 7)
    assert(first.t3.size === 11)
    assert(first.t4.size === 20 && first.t4.values.forall(_.size == 2))
    Seq(a.fitNone, a.fit50, a.fit70).foreach { f =>
      assert(f.predictions.keySet === a.testIds.toSet)
      assert(f.predictions.values.forall(_.length == Labels.Count))
    }
    val accs = (first.baselines ++ first.t3).map(_.acc) ++
      Seq(a.fitNone, a.fit50, a.fit70).map(_.accuracies)
    accs.flatMap(x => Seq(x.aP, x.aR, x.aRes, x.aCal, x.aML)).foreach { v =>
      assert(!v.isNaN && v >= 0.0 && v <= 1.0, v)
    }
  }

  test("a fold submits no Spark job") {
    assert(firstJobs === 0)
    assert(first.early.keySet === first.a.testIds.toSet,
      "early identification covers the test fold")
  }

  test("two runs of a fold give identical output") {
    val (_, second, _) = runFold()
    assert(cells(second) === cells(first))
  }

  test("the whole experiment runs without Spark and fills every table") {
    val (run, jobs) = jobsDuring(Experiments.run(new StudyHandle(spark, study),
      new StudyHandle(spark, MatcherSim.oaeiStudy(nMatchers = 12)), cfg))
    assert(jobs === 0)
    assert(Seq(run.iia, run.iib, run.iii, run.iv, run.fig10, run.fig11).map(_.size) ===
      Seq(10, 10, 11, 20, 5, 5))
    def inUnit(v: Double) = java.lang.Double.isFinite(v) && v >= 0.0 && v <= 1.0
    (run.iia ++ run.iib ++ run.iii).foreach(r => assert(r.acc.toSeq.forall(inUnit), r))
    (run.fig10 ++ run.fig11).foreach { r =>
      assert(Seq(r.p, r.r, r.absCal, r.fusedP, r.fusedR).forall(inUnit), r)
      assert(r.res >= -1.0 && r.res <= 1.0, r)
    }
    run.iv.foreach { case ((set, _), feats) =>
      assert(feats.size == 2 && feats.forall(_.startsWith(s"${set}_")), feats)
    }
  }

  test("baselineRows rejects train and test handles that share matcher ids") {
    val other = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 30, seed = 14L))
    val e = intercept[IllegalArgumentException](
      Experiments.baselineRows(handle, other, first.a, seed = 8L))
    assert(e.getMessage.contains("share matcher ids"), e.getMessage)
  }
}

object FoldSmokeSpec {
  /** Tiny networks, so a fold takes seconds. */
  val cfg: NeuralFeatures.Config =
    NeuralFeatures.Config(lstmEpochs = 1, lstmHidden = 4, cnnEpochs = 1, cnnFilters = 1)
  lazy val study: StudyData = MatcherSim.poStudy(nMatchers = 30, seed = 13L)

  private final case class Outcome(
      a: Experiments.FoldArtifacts,
      baselines: Vector[Experiments.TableRow],
      t3: Vector[Experiments.TableRow],
      t4: Map[(String, String), Vector[String]],
      early: Map[Long, Array[Boolean]])
}
