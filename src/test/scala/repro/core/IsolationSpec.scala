package repro.core

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import repro.SparkSpec
import repro.synth.{MatcherSim, StudyData}

/** Metamorphic train/test isolation: a fold's learned state is a function
  * of its training matchers alone. Perturbing every test matcher's
  * decisions, warm-up decisions and mouse columns, or testing on another
  * population altogether, must leave the thresholds, the LSTMs and CNNs,
  * the training rows, the standardizers and the selected classifiers equal
  * bit for bit, while the test rows move.
  *
  * The reference match stays as it is: one task's train and test matchers
  * share it, so it is not test data.
  */
class IsolationSpec extends SparkSpec {
  import FoldSmokeSpec.{cfg, study}

  /** `s` with the decisions and mouse columns of the matchers in `ids`
    * perturbed: conf mirrored within [0.05, 0.95] and every mouse event
    * mirrored on the screen.
    */
  private def perturb(s: StudyData, ids: Set[Long]): StudyData = {
    def flip(ds: Vector[Decision]) = ds.map(d =>
      if (ids(d.matcherId)) d.copy(conf = 0.05 + 0.9 * (1.0 - d.conf)) else d)
    val (w, h) = (s.task.screenW.toDouble, s.task.screenH.toDouble)
    s.copy(
      decisions = flip(s.decisions),
      warmupDecisions = flip(s.warmupDecisions),
      mouse = MouseStream.of(s.mouse.byMatcher.iterator.map { case (id, c) =>
        id -> (if (ids(id)) new MouseColumns(c.x.map(w - _), c.y.map(h - _), c.kind, c.ts) else c)
      }))
  }

  private def bits(xs: Iterable[Double]): Vector[Long] =
    xs.iterator.map(java.lang.Double.doubleToRawLongBits).toVector

  private def serialized(o: AnyRef): Vector[Byte] = {
    val out = new ByteArrayOutputStream
    val oos = new ObjectOutputStream(out)
    oos.writeObject(o)
    oos.close()
    out.toByteArray.toVector
  }

  /** Everything a fold learns from its training matchers, as bits. */
  private def learned(a: Experiments.FoldArtifacts): Vector[Any] = {
    val preps = Vector(a.pNone, a.p50, a.p70)
    val fits = Vector(a.fitNone, a.fit50, a.fit70)
    val t = a.p50.thresholds
    Vector(bits(Seq(t.dP, t.dR, t.dRes, t.dCal))) ++
      preps.map(_.lstms.toVector.map(n => bits(n.params))) ++
      Vector(a.p50.cnns.toVector.sortBy(_._1).map { case (k, n) => k -> bits(n.params) }) ++
      preps.map(p => p.trainIds.map(id => id -> bits(p.features.vector(id)))) ++
      fits.map(f => (bits(f.standardizer.means), bits(f.standardizer.stds))) ++
      fits.map(_.models.toVector.map { case (name, m) => name -> serialized(m) })
  }

  private def testRows(a: Experiments.FoldArtifacts): Vector[(Long, Vector[Long])] =
    a.testIds.map(id => id -> bits(a.p50.features.vector(id)))

  private def assertIsolated(a: Experiments.FoldArtifacts, b: Experiments.FoldArtifacts): Unit = {
    val (la, lb) = (learned(a), learned(b))
    assert(la.size === lb.size)
    la.zip(lb).zipWithIndex.foreach { case ((x, y), i) => assert(x == y, s"learned part $i moved") }
    assert(testRows(a) !== testRows(b), "the perturbation moved no test row")
  }

  test("a PO fold's learned state ignores its test matchers' decisions and mouse") {
    val (train, test) = Experiments.foldSplits(study.traits.map(_.matcherId), 5, seed = 3L).head
    val Seq(a, b) = Seq(study, perturb(study, test.toSet)).map { s =>
      val h = new StudyHandle(spark, s)
      Experiments.computeFold(spark, h, h, train, test, cfg, seed = 7L)
    }
    assertIsolated(a, b)
  }

  test("a PO-trained fold learns the same whatever OAEI population it tests") {
    val po = new StudyHandle(spark, study)
    val Seq(a, b) = Seq(43L, 44L).map { seed =>
      val oaei = new StudyHandle(spark, MatcherSim.oaeiStudy(nMatchers = 12, seed = seed))
      Experiments.computeFold(spark, po, oaei, po.matcherIds, oaei.matcherIds, cfg, seed = 7L)
    }
    assert(a.testIds === b.testIds)
    assertIsolated(a, b)
  }
}
