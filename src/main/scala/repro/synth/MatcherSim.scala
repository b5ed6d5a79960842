package repro.synth

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Decision, MouseColumns, MouseKinds, MouseStream, RefPair}
import scala.collection.mutable

/** Latent traits of one simulated human matcher.
  *
  * The traits are the causal sources of the four expertise measures
  * (DESIGN.md section 2):
  *   - `q`      decision correctness probability -> Precision;
  *   - `nDecisions` with `q`                      -> Recall;
  *   - `rho`    metacognitive sensitivity (confidence tracks correctness,
  *              revisits fix bad decisions, little scrolling) -> Resolution;
  *   - `bias`   systematic over/under-confidence  -> Calibration;
  *   - `baseGap` per-decision pace (skilled matchers deliberate longer).
  */
final case class MatcherTraits(
    matcherId: Long,
    q: Double,
    rho: Double,
    bias: Double,
    baseGap: Double,
    nDecisions: Int,
)

/** Everything the simulator produces for one population on one task.
  *
  * The histories H are vectors of [[Decision]] rows. The movement map G is
  * a [[MouseStream]]: each matcher's events as primitive columns, about
  * 25 B per event.
  *
  * The `*Df` methods expose the data as DataFrames over an RDD, with the
  * schema `Seq.toDF()` gives. They copy no row: a `Seq.toDF()`
  * `LocalRelation` would hold a converted copy of every row for as long
  * as the DataFrame is reachable. The decision, warm-up and reference RDDs
  * hold the vectors' own objects. The mouse RDD holds each matcher's id
  * and columns, and its tasks build the `MouseEvent` rows as they read
  * them.
  */
final case class StudyData(
    task: MatchingTask,
    warmupTask: MatchingTask,
    traits: Vector[MatcherTraits],
    decisions: Vector[Decision],
    mouse: MouseStream,
    warmupDecisions: Vector[Decision],
) {
  def decisionsDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(decisions).toDF()
  }
  def mouseDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(mouse.byMatcher.toSeq)
      .flatMap { case (id, columns) => columns.events(id) }.toDF()
  }
  def warmupDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(warmupDecisions).toDF()
  }
  def referenceDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(task.reference).toDF()
  }
}

/** Trait priors for a population; the OAEI prior is shifted relative to PO
  * to create the domain gap observed in Table IIb.
  */
final case class TraitPrior(
    qMean: Double, qStd: Double,
    rhoMean: Double, rhoStd: Double,
    biasMean: Double, biasStd: Double,
    decMean: Double, decStd: Double,
)

object TraitPrior {
  /** Tuned so population marginals approximate the paper's Section IV-C:
    * mean P ~ .55, mean R ~ .33, ~53% precise, ~15% thorough, ~33%
    * correlated, overconfidence the norm.
    */
  val po: TraitPrior = TraitPrior(
    // qMean sits below the target precision: repeated mistakes collapse
    // onto shared decoy pairs in the final matrix, lifting realized P.
    qMean = 0.48, qStd = 0.20,
    rhoMean = 0.45, rhoStd = 0.30,
    biasMean = 0.12, biasStd = 0.22,
    decMean = 55, decStd = 18,
  )

  /** Domain-shifted prior for the OAEI generalizability experiment. */
  val oaei: TraitPrior = TraitPrior(
    qMean = 0.44, qStd = 0.22,
    rhoMean = 0.40, rhoStd = 0.30,
    biasMean = 0.10, biasStd = 0.24,
    decMean = 60, decStd = 20,
  )
}

object MatcherSim {

  private def clamp(x: Double, lo: Double, hi: Double): Double =
    math.max(lo, math.min(hi, x))

  def sampleTraits(matcherId: Long, prior: TraitPrior, rnd: java.util.Random): MatcherTraits = {
    val q = clamp(prior.qMean + rnd.nextGaussian() * prior.qStd, 0.05, 0.97)
    // Expertise dimensions correlate in the paper's population (84% of the
    // under-confident matchers are precise, 40% thorough — Section IV-C),
    // so metacognitive sensitivity rises with skill and over-confidence
    // falls with it. Without this coupling, "expert on all four
    // dimensions" would be a ~0.2% event and Section IV-F's expert
    // filtering would have nobody to find.
    val rho = clamp(prior.rhoMean + 0.9 * (q - 0.5) +
      rnd.nextGaussian() * prior.rhoStd * 0.6, 0.0, 1.0)
    // Skill shrinks both the systematic bias and its spread: good matchers
    // self-assess tightly, poor ones scatter (Dunning–Kruger style).
    val biasScale = math.max(0.15, 1.1 - q)
    val bias = clamp((prior.biasMean - 0.35 * (q - 0.5)) * biasScale +
      rnd.nextGaussian() * prior.biasStd * biasScale, -0.5, 0.5)
    val baseGap = clamp(4.0 + 14.0 * q + rnd.nextGaussian() * 2.0, 1.0, 30.0)
    val n = clamp(prior.decMean + rnd.nextGaussian() * prior.decStd, 15, 95).toInt
    MatcherTraits(matcherId, q, rho, bias, baseGap, n)
  }

  /** Simulate one decision history over `task` for a matcher with `traits`.
    *
    * Each step is either a revisit of an earlier pair (more likely, and
    * corrective, for metacognitively sensitive matchers) or a fresh
    * decision that is correct with probability `q`. Correct decisions pick
    * an unmatched reference pair (easy ones first); wrong decisions favour
    * the reference pair's decoy. Confidence couples to correctness through
    * `rho` and shifts by `bias`; inter-decision gaps follow the matcher's
    * pace and the pair's difficulty.
    */
  def simulateHistory(task: MatchingTask, traits: MatcherTraits, nDecisions: Int,
                      rnd: java.util.Random): Vector[Decision] = {
    val out = Vector.newBuilder[Decision]
    val seen = mutable.LinkedHashMap.empty[RefPair, (Double, Boolean)] // pair -> (conf, correct)
    val unusedRef = mutable.ArrayBuffer.from(
      task.reference.sortBy(p => -task.difficulty(p)))  // easiest first
    var ts = 0.0
    // Confidence noise must dominate the rho coupling for most matchers so
    // the population's gamma distribution is smooth (paper Fig. 8: mean
    // resolution .37; a hard-separated population would spike at 1.0).
    val kappa = 0.22
    var seq = 0
    while (seq < nDecisions) {
      val revisitP = 0.06 + 0.14 * traits.rho
      val isRevisit = seen.nonEmpty && rnd.nextDouble() < revisitP
      val (pair, conf, correct, gapScale) =
        if (isRevisit) {
          val keys = seen.keys.toIndexedSeq
          val p = keys(rnd.nextInt(keys.length))
          val (oldConf, wasCorrect) = seen(p)
          // Sensitive matchers move confidence toward the truth on revisits.
          val c = clamp(
            oldConf + (if (wasCorrect) 1 else -1) * traits.rho * 0.15 +
              rnd.nextGaussian() * 0.08, 0.05, 1.0)
          (p, c, wasCorrect, 0.6)
        } else {
          val correct = rnd.nextDouble() < traits.q && unusedRef.nonEmpty
          val p =
            if (correct) unusedRef.remove(0)
            else {
              // Wrong decision: most mistakes are decoys in a row the
              // matcher already matched (the plausible sibling attribute)
              // — these collide with correct entries in the matching
              // matrix and degrade its structural predictors (dominance,
              // 1:1-matching weight), which is precisely the signal
              // Phi_LRSM uses to spot imprecise matchers.
              val matchedRows = seen.keys.filter(task.referenceSet.contains)
                .map(_.aIdx).toSet
              val rowDecoys = task.decoys.filter(d => matchedRows.contains(d.aIdx))
              var cand =
                if (rowDecoys.nonEmpty && rnd.nextDouble() < 0.75)
                  rowDecoys(rnd.nextInt(rowDecoys.length))
                else if (task.decoys.nonEmpty && rnd.nextDouble() < 0.7)
                  task.decoys(rnd.nextInt(task.decoys.length))
                else RefPair(rnd.nextInt(task.nA), rnd.nextInt(task.nB))
              var tries = 0
              while ((task.referenceSet.contains(cand) || seen.contains(cand)) && tries < 20) {
                cand = RefPair(rnd.nextInt(task.nA), rnd.nextInt(task.nB))
                tries += 1
              }
              cand
            }
          val actuallyCorrect = task.referenceSet.contains(p)
          // Confidence is anchored to ability (0.25 + 0.6 q): without the
          // anchor, precise matchers would all read as under-confident and
          // no matcher could be calibrated and precise at once.
          val c = clamp(
            0.25 + 0.6 * traits.q + traits.bias +
              traits.rho * kappa * (if (actuallyCorrect) 1 else -1) +
              rnd.nextGaussian() * 0.12, 0.05, 1.0)
          val diffScale = task.difficulty.getOrElse(p, 0.6)
          (p, c, actuallyCorrect, 1.6 - diffScale)
        }
      val gap = clamp(-math.log(1 - rnd.nextDouble()) * traits.baseGap * gapScale, 0.5, 90.0)
      ts += gap
      seen(pair) = (conf, correct)
      out += Decision(traits.matcherId, seq, pair.aIdx, pair.bIdx, conf, ts)
      seq += 1
    }
    out.result()
  }

  /** Screen regions of the (simulated) OntoBuilder-style interface. */
  private final case class Region(cx: Double, cy: Double, spread: Double)

  /** Simulate the movement map G for one matcher over the span of their
    * decision history, as columns in `ts` order (stable: events at one
    * `ts` keep the order they were drawn in). Region preferences, scroll
    * intensity and spatial dispersion are driven by the same latents as
    * the measures, mirroring the paper's observations (skilled matchers
    * read the schema/metadata panes; uncertain matchers scroll;
    * overconfident matchers camp on the matching matrix).
    */
  def simulateMouse(task: MatchingTask, traits: MatcherTraits,
                    history: Vector[Decision], rnd: java.util.Random): MouseColumns = {
    if (history.isEmpty) return MouseColumns.empty
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

    val out = new MouseColumns.Builder
    var x = matrix.cx; var y = matrix.cy
    var i = 0
    while (i < nMoves) {
      val target =
        if (rnd.nextDouble() < pSchema) {
          if (rnd.nextDouble() < 0.5) schemaLeft
          else if (rnd.nextDouble() < 0.75) schemaRight else propsBox
        } else matrix
      // A short saccade toward the target with local jitter.
      val steps = 2 + rnd.nextInt(4)
      var s = 0
      while (s < steps && i < nMoves) {
        val frac = (s + 1).toDouble / steps
        x = clamp(x + (target.cx - x) * frac + rnd.nextGaussian() * target.spread * 0.4, 0, w)
        y = clamp(y + (target.cy - y) * frac + rnd.nextGaussian() * target.spread * 0.4, 0, h)
        val ts = tEnd * i / nMoves
        out.add(x, y, MouseKinds.MoveIdx, ts)
        if (rnd.nextDouble() < scrollRate) {
          val sx = clamp(x + rnd.nextGaussian() * scrollSpread, 0, w)
          val sy = clamp(y + rnd.nextGaussian() * scrollSpread, 0, h)
          out.add(sx, sy, MouseKinds.ScrollIdx, ts + 0.01)
        }
        if (rnd.nextDouble() < 0.008)
          out.add(x, y, MouseKinds.RightIdx, ts + 0.02)
        s += 1; i += 1
      }
    }
    // One left click per decision, at the matrix cell being decided.
    history.foreach { d =>
      val cx = clamp(matrix.cx + (d.bIdx.toDouble / task.nB - 0.5) * 0.3 * w +
        rnd.nextGaussian() * 4, 0, w)
      val cy = clamp(matrix.cy + (d.aIdx.toDouble / task.nA - 0.5) * 0.25 * h +
        rnd.nextGaussian() * 4, 0, h)
      out.add(cx, cy, MouseKinds.LeftIdx, d.ts)
    }
    val events = out.result()
    events.select(MouseColumns.stableOrder(events.size) { (a, b) =>
      java.lang.Double.compare(events.ts(a), events.ts(b))
    })
  }

  /** Simulate a full study population: main-task histories and mouse maps
    * plus a warm-up history per matcher (used by the qualification-test and
    * self-assessment baselines). Deterministic in (seed, ids).
    */
  def study(task: MatchingTask, warmupTask: MatchingTask, prior: TraitPrior,
            nMatchers: Int, idOffset: Long, seed: Long): StudyData = {
    val traits = Vector.newBuilder[MatcherTraits]
    val decisions = Vector.newBuilder[Decision]
    val mouse = Vector.newBuilder[(Long, MouseColumns)]
    val warmups = Vector.newBuilder[Decision]
    for (k <- 0 until nMatchers) {
      val id = idOffset + k
      val rnd = new java.util.Random(seed * 7919L + id * 104729L)
      val t = sampleTraits(id, prior, rnd)
      traits += t
      val h = simulateHistory(task, t, t.nDecisions, rnd)
      decisions ++= h
      mouse += id -> simulateMouse(task, t, h, rnd)
      warmups ++= simulateHistory(warmupTask, t, nDecisions = 10, rnd)
    }
    StudyData(task, warmupTask, traits.result(), decisions.result(),
      MouseStream.of(mouse.result()), warmups.result())
  }

  /** The paper's PO population: 106 matchers (Section IV-B1). */
  def poStudy(nMatchers: Int = 106, seed: Long = 42L): StudyData =
    study(MatchingTask.po(), MatchingTask.warmup(), TraitPrior.po,
      nMatchers, idOffset = 0L, seed = seed)

  /** The paper's OAEI population: 34 matchers (Section IV-B1). */
  def oaeiStudy(nMatchers: Int = 34, seed: Long = 43L): StudyData =
    study(MatchingTask.oaei(), MatchingTask.warmup(seed = 304L), TraitPrior.oaei,
      nMatchers, idOffset = 1000L, seed = seed)
}
