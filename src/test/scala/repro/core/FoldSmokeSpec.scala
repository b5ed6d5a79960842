package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.synth.MatcherSim

/** End-to-end smoke test of one Table IIa fold on a small PO study: the
  * fold, its baselines, the Table III ablation, Table IV importance and
  * early identification over truncated histories, with tiny networks. It
  * checks shapes and ranges, run-to-run equality, and that the fold path
  * submits no Spark job.
  */
class FoldSmokeSpec extends SparkSpec {
  import FoldSmokeSpec.Outcome

  private val cfg = NeuralFeatures.Config(lstmEpochs = 1, lstmHidden = 4, cnnEpochs = 1, cnnFilters = 1)
  private lazy val study = MatcherSim.poStudy(nMatchers = 30, seed = 13L)

  /** A fresh handle and one fold, with the Spark jobs submitted meanwhile. */
  private def runFold(): (StudyHandle, Outcome, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val h = new StudyHandle(spark, study)
      val (trainIds, testIds) = Experiments.foldSplits(h.matcherIds, 5, seed = 3L).head
      val a = Experiments.computeFold(spark, h, h, trainIds, testIds, cfg, seed = 7L)
      val out = Outcome(a, Experiments.baselineRows(h, h, a, seed = 8L),
        Experiments.tableIII(Vector(a)), Experiments.tableIV(Vector(a)),
        Experiments.earlyPredictions(
          new StudyHandle(spark, ExpertFilter.truncateStudy(study, k = 10)), Vector(a)))
      ListenerBusDrain(sc)
      (h, out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  private lazy val (handle, first, firstJobs) = runFold()

  private def cells(o: Outcome): Seq[String] =
    (o.baselines ++ o.t3 ++ Vector(
      Experiments.TableRow("MExI_0", o.a.fitNone.accuracies),
      Experiments.TableRow("MExI_50", o.a.fit50.accuracies),
      Experiments.TableRow("MExI_70", o.a.fit70.accuracies)))
      .map(r => s"${r.method} ${r.acc}") ++
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

  test("baselineRows rejects train and test handles that share matcher ids") {
    val other = new StudyHandle(spark, MatcherSim.poStudy(nMatchers = 30, seed = 14L))
    val e = intercept[IllegalArgumentException](
      Experiments.baselineRows(handle, other, first.a, seed = 8L))
    assert(e.getMessage.contains("share matcher ids"), e.getMessage)
  }
}

object FoldSmokeSpec {
  private final case class Outcome(
      a: Experiments.FoldArtifacts,
      baselines: Vector[Experiments.TableRow],
      t3: Vector[Experiments.TableRow],
      t4: Map[(String, String), Vector[String]],
      early: Map[Long, Array[Boolean]])
}
