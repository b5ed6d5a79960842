package repro.synth

import java.lang.reflect.Modifier
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Decision, MouseColumns, MouseEvent, MouseKinds, RefPair}
import repro.ml.Stats

/** Driver-side validation of the human-matcher simulator: determinism,
  * structural invariants, and — crucially — that the latent traits
  * actually cause the behaviors the paper attributes to them (so the
  * learning problem is well-posed; see DESIGN.md section 2).
  */
class MatcherSimSpec extends AnyFunSuite {
  private val study = MatcherSim.poStudy(nMatchers = 60, seed = 7L)
  private val task = study.task
  private val byMatcher = study.decisions.groupBy(_.matcherId)
  private val events = study.mouse.events.toVector

  private def precisionOf(id: Long): Double = {
    val h = byMatcher(id)
    val finalEntries = h.groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts))
    val correct = finalEntries.count(d => task.referenceSet.contains(RefPair(d.aIdx, d.bIdx)))
    correct.toDouble / finalEntries.size
  }

  test("study generation is deterministic in the seed") {
    val a = MatcherSim.poStudy(nMatchers = 5, seed = 3L)
    val b = MatcherSim.poStudy(nMatchers = 5, seed = 3L)
    assert(a.decisions === b.decisions)
    assert(a.mouse.events.toVector === b.mouse.events.toVector)
    assert(a.warmupDecisions === b.warmupDecisions)
  }

  test("different seeds produce different studies") {
    val a = MatcherSim.poStudy(nMatchers = 5, seed = 3L)
    val b = MatcherSim.poStudy(nMatchers = 5, seed = 4L)
    assert(a.decisions !== b.decisions)
  }

  test("every matcher has traits, decisions, mouse events and a warm-up") {
    val ids = study.traits.map(_.matcherId).toSet
    assert(ids.size === 60)
    assert(study.decisions.map(_.matcherId).toSet === ids)
    assert(events.map(_.matcherId).toSet === ids)
    assert(study.warmupDecisions.map(_.matcherId).toSet === ids)
  }

  test("decision counts match the sampled trait") {
    for (t <- study.traits) {
      assert(byMatcher(t.matcherId).size === t.nDecisions)
    }
  }

  test("confidences stay within [0.05, 1]") {
    assert(study.decisions.forall(d => d.conf >= 0.05 && d.conf <= 1.0))
  }

  test("decision element indices are within the task bounds") {
    assert(study.decisions.forall(d => d.aIdx >= 0 && d.aIdx < task.nA &&
      d.bIdx >= 0 && d.bIdx < task.nB))
  }

  test("timestamps strictly increase within a history") {
    for ((_, h) <- byMatcher) {
      val sorted = h.sortBy(_.seq)
      assert(sorted.zip(sorted.tail).forall { case (a, b) => b.ts > a.ts })
    }
  }

  test("seq numbers are consecutive from zero") {
    for ((_, h) <- byMatcher) {
      assert(h.sortBy(_.seq).map(_.seq) === (0 until h.size))
    }
  }

  test("warm-up histories have 10 decisions on the warm-up task") {
    val byM = study.warmupDecisions.groupBy(_.matcherId)
    assert(byM.values.forall(_.size === 10))
    assert(study.warmupDecisions.forall(d =>
      d.aIdx < study.warmupTask.nA && d.bIdx < study.warmupTask.nB))
  }

  test("mouse events are time-sorted with in-screen coordinates") {
    val byM = events.groupBy(_.matcherId)
    for ((_, es) <- byM) {
      assert(es.zip(es.tail).forall { case (a, b) => b.ts >= a.ts })
    }
    assert(events.forall(e => e.x >= 0 && e.x <= task.screenW &&
      e.y >= 0 && e.y <= task.screenH))
    assert(events.forall(e => MouseKinds.All.contains(e.kind)))
  }

  test("every matcher emits all four event kinds in plausible proportions") {
    val byM = events.groupBy(_.matcherId)
    for ((_, es) <- byM) {
      val kinds = es.groupBy(_.kind).view.mapValues(_.size).toMap
      assert(kinds.getOrElse(MouseKinds.Move, 0) > kinds.getOrElse(MouseKinds.Scroll, 0))
      assert(kinds.getOrElse(MouseKinds.Left, 0) > 0, "one click per decision")
    }
  }

  test("left clicks equal the number of decisions") {
    val clicks = events.filter(_.kind == MouseKinds.Left).groupBy(_.matcherId)
    for (t <- study.traits) {
      assert(clicks(t.matcherId).size === t.nDecisions)
    }
  }

  // --- causal links: traits -> measures ---

  test("skill q drives realized precision (corr > 0.6)") {
    val qs = study.traits.map(_.q)
    val ps = study.traits.map(t => precisionOf(t.matcherId))
    assert(Stats.pearson(qs, ps) > 0.6, s"corr=${Stats.pearson(qs, ps)}")
  }

  test("metacognitive sensitivity rho drives resolution (corr > 0.4)") {
    val gs = study.traits.map { t =>
      val h = byMatcher(t.matcherId)
      val finals = h.groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts)).toSeq
      val correct = finals.map(d => task.referenceSet.contains(RefPair(d.aIdx, d.bIdx)))
      Stats.gammaTest(finals.map(_.conf), correct)._1
    }
    assert(Stats.pearson(study.traits.map(_.rho), gs) > 0.4)
  }

  test("bias drives calibration (corr > 0.6)") {
    val cals = study.traits.map { t =>
      val h = byMatcher(t.matcherId)
      Stats.mean(h.map(_.conf)) - precisionOf(t.matcherId)
    }
    assert(Stats.pearson(study.traits.map(_.bias), cals) > 0.6)
  }

  test("scroll rate anti-correlates with rho (the uncertainty signal)") {
    val rates = study.traits.map { t =>
      val es = events.filter(_.matcherId == t.matcherId)
      es.count(_.kind == MouseKinds.Scroll).toDouble / es.size
    }
    assert(Stats.pearson(study.traits.map(_.rho), rates) < -0.5)
  }

  test("skilled matchers visit the schema panes more (heat-map signal)") {
    // Schema panes live in the top third of the screen.
    val topShare = study.traits.map { t =>
      val moves = events.filter(e => e.matcherId == t.matcherId &&
        e.kind == MouseKinds.Move)
      moves.count(_.y < task.screenH * 0.4).toDouble / moves.size
    }
    assert(Stats.pearson(study.traits.map(_.q), topShare) > 0.3)
  }

  test("population marginals are in the paper's ballpark (Fig. 8/9)") {
    val big = MatcherSim.poStudy(nMatchers = 106, seed = 42L)
    val byM = big.decisions.groupBy(_.matcherId)
    val ps = big.traits.map { t =>
      val finals = byM(t.matcherId).groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts))
      finals.count(d => big.task.referenceSet.contains(RefPair(d.aIdx, d.bIdx))).toDouble / finals.size
    }
    val rs = big.traits.map { t =>
      val finals = byM(t.matcherId).groupBy(d => (d.aIdx, d.bIdx)).values.map(_.maxBy(_.ts))
      finals.count(d => big.task.referenceSet.contains(RefPair(d.aIdx, d.bIdx))).toDouble /
        big.task.reference.size
    }
    val meanP = Stats.mean(ps); val meanR = Stats.mean(rs)
    assert(meanP > 0.40 && meanP < 0.70, s"mean precision $meanP (paper: .55)")
    assert(meanR > 0.20 && meanR < 0.50, s"mean recall $meanR (paper: .33)")
    val precise = ps.count(_ > 0.5).toDouble / ps.size
    val thorough = rs.count(_ > 0.5).toDouble / rs.size
    assert(precise > 0.3 && precise < 0.75, s"precise fraction $precise (paper: .53)")
    assert(thorough < 0.45, s"thorough fraction $thorough (paper: .15)")
  }

  test("OAEI study uses shifted ids and its own task") {
    val o = MatcherSim.oaeiStudy(nMatchers = 10, seed = 9L)
    assert(o.traits.forall(_.matcherId >= 1000L))
    assert(o.task.name === "OAEI")
  }

  // --- the columnar mouse store against the simulator's MouseEvent rows ---

  /** The mouse simulator as it was: `MouseEvent` rows, stably sorted by ts. */
  private def rowMouse(task: MatchingTask, traits: MatcherTraits,
                       history: Vector[Decision], rnd: java.util.Random): Vector[MouseEvent] = {
    final case class Region(cx: Double, cy: Double, spread: Double)
    def clamp(x: Double, lo: Double, hi: Double): Double = math.max(lo, math.min(hi, x))
    if (history.isEmpty) return Vector.empty
    val w = task.screenW.toDouble; val h = task.screenH.toDouble
    val schemaLeft = Region(0.18 * w, 0.22 * h, 0.07 * w)
    val schemaRight = Region(0.72 * w, 0.22 * h, 0.07 * w)
    val matrix = Region(0.50 * w, 0.72 * h, 0.12 * w)
    val propsBox = Region(0.88 * w, 0.55 * h, 0.05 * w)
    val tEnd = history.last.ts
    val nMoves = math.min(3000, history.length * 24)
    val pSchema = clamp(0.12 + 0.45 * traits.q - 0.30 * math.max(0.0, traits.bias), 0.03, 0.75)
    val scrollRate = clamp(0.04 + 0.30 * (1.0 - traits.rho), 0.02, 0.5)
    val scrollSpread = 0.04 * w + 0.20 * w * (1.0 - traits.rho)
    val out = Vector.newBuilder[MouseEvent]
    var x = matrix.cx; var y = matrix.cy
    var i = 0
    while (i < nMoves) {
      val target =
        if (rnd.nextDouble() < pSchema) {
          if (rnd.nextDouble() < 0.5) schemaLeft
          else if (rnd.nextDouble() < 0.75) schemaRight else propsBox
        } else matrix
      val steps = 2 + rnd.nextInt(4)
      var s = 0
      while (s < steps && i < nMoves) {
        val frac = (s + 1).toDouble / steps
        x = clamp(x + (target.cx - x) * frac + rnd.nextGaussian() * target.spread * 0.4, 0, w)
        y = clamp(y + (target.cy - y) * frac + rnd.nextGaussian() * target.spread * 0.4, 0, h)
        val ts = tEnd * i / nMoves
        out += MouseEvent(traits.matcherId, x, y, MouseKinds.Move, ts)
        if (rnd.nextDouble() < scrollRate) {
          val sx = clamp(x + rnd.nextGaussian() * scrollSpread, 0, w)
          val sy = clamp(y + rnd.nextGaussian() * scrollSpread, 0, h)
          out += MouseEvent(traits.matcherId, sx, sy, MouseKinds.Scroll, ts + 0.01)
        }
        if (rnd.nextDouble() < 0.008)
          out += MouseEvent(traits.matcherId, x, y, MouseKinds.Right, ts + 0.02)
        s += 1; i += 1
      }
    }
    history.foreach { d =>
      val cx = clamp(matrix.cx + (d.bIdx.toDouble / task.nB - 0.5) * 0.3 * w +
        rnd.nextGaussian() * 4, 0, w)
      val cy = clamp(matrix.cy + (d.aIdx.toDouble / task.nA - 0.5) * 0.25 * h +
        rnd.nextGaussian() * 4, 0, h)
      out += MouseEvent(traits.matcherId, cx, cy, MouseKinds.Left, d.ts)
    }
    out.result().sortBy(_.ts)
  }

  /** The study loop as it was, with the row mouse simulator: the decisions,
    * the mouse rows and the warm-up decisions.
    */
  private def rowStudy(task: MatchingTask, warmupTask: MatchingTask, prior: TraitPrior,
                       nMatchers: Int, idOffset: Long, seed: Long)
      : (Vector[Decision], Vector[MouseEvent], Vector[Decision]) = {
    val decisions = Vector.newBuilder[Decision]
    val mouse = Vector.newBuilder[MouseEvent]
    val warmups = Vector.newBuilder[Decision]
    for (k <- 0 until nMatchers) {
      val id = idOffset + k
      val rnd = new java.util.Random(seed * 7919L + id * 104729L)
      val t = MatcherSim.sampleTraits(id, prior, rnd)
      val h = MatcherSim.simulateHistory(task, t, t.nDecisions, rnd)
      decisions ++= h
      mouse ++= rowMouse(task, t, h, rnd)
      warmups ++= MatcherSim.simulateHistory(warmupTask, t, nDecisions = 10, rnd)
    }
    (decisions.result(), mouse.result(), warmups.result())
  }

  private def eventBits(e: MouseEvent): (Long, Long, Long, String, Long) = {
    import java.lang.Double.doubleToRawLongBits
    (e.matcherId, doubleToRawLongBits(e.x), doubleToRawLongBits(e.y), e.kind,
      doubleToRawLongBits(e.ts))
  }

  test("the columnar study holds exactly the row simulator's events, in order") {
    val po = (MatchingTask.po(), MatchingTask.warmup(), TraitPrior.po, 0L)
    val oaei = (MatchingTask.oaei(), MatchingTask.warmup(seed = 304L), TraitPrior.oaei, 1000L)
    for {
      (task, warmupTask, prior, idOffset) <- Seq(po, oaei)
      (nMatchers, seed) <- Seq((1, 1L), (3, 2L), (7, 42L), (12, 77L), (20, 3302L))
    } {
      val s = MatcherSim.study(task, warmupTask, prior, nMatchers, idOffset, seed)
      val (decisions, mouse, warmups) =
        rowStudy(task, warmupTask, prior, nMatchers, idOffset, seed)
      val clue = s"${task.name}, $nMatchers matchers, seed $seed"
      assert(s.decisions === decisions, clue)
      assert(s.warmupDecisions === warmups, clue)
      assert(s.mouse.events.map(eventBits).toVector === mouse.map(eventBits), clue)
      assert(s.mouse.size === mouse.size, clue)
      assert(s.mouse.byMatcher.keys.toVector === mouse.map(_.matcherId).distinct, clue)
    }
  }

  test("the PO study keeps its mouse events as primitive arrays, 25 B per event") {
    val po = MatcherSim.poStudy()
    val fields = classOf[MouseColumns].getDeclaredFields
      .filterNot(f => Modifier.isStatic(f.getModifiers))
    fields.foreach(_.setAccessible(true))
    val bytes = po.mouse.byMatcher.valuesIterator.map { c =>
      fields.iterator.map(f => f.get(c) match {
        case a: Array[Double] => 8L * a.length
        case a: Array[Byte] => 1L * a.length
        case other => fail(s"MouseColumns.${f.getName} holds a ${other.getClass.getName}")
      }).sum
    }.sum
    assert(po.mouse.size === po.mouse.events.size)
    assert(po.mouse.size > 100000)
    assert(bytes === 25L * po.mouse.size)
  }
}
