package repro.synth

import repro.core.RefPair

/** A synthetic matching task: two element sets, a planted reference match,
  * per-pair difficulty, and a screen layout for the mouse simulator.
  *
  * Substitutes the paper's study materials (DESIGN.md section 2): the
  * Purchase Order schema pair (142 x 46 attributes), the OAEI 2011/2016
  * ontology pair (121 x 109 elements), and the Thalia warm-up schemata
  * (9-12 attributes). Only dimensions, reference size and difficulty mix
  * influence the expertise measures and predictors, so those are what the
  * generator reproduces.
  */
final case class MatchingTask(
    name: String,
    nA: Int,
    nB: Int,
    reference: Vector[RefPair],
    /** Ease of each reference pair in [0,1]: 0.85-1 for easy pairs,
      * 0.35-0.6 for ambiguous ones. `MatcherSim.simulateHistory` attempts
      * unmatched reference pairs easiest first and scales the think-time
      * gap before a fresh decision on a pair by `1.6 - difficulty` (0.6 for
      * pairs outside the reference). Whether a decision is correct depends
      * on the matcher's `q` alone.
      */
    difficulty: Map[RefPair, Double],
    /** Wrong pairs that attract mistakes (plausible-but-incorrect decoys). */
    decoys: Vector[RefPair],
    screenW: Int,
    screenH: Int,
) {
  require(reference.nonEmpty, "reference match must be non-empty")
  require(reference.forall(p => p.aIdx < nA && p.bIdx < nB), "reference out of bounds")
  val referenceSet: Set[RefPair] = reference.toSet
}

object MatchingTask {

  /** Deterministic task builder: a near-1:1 planted match over min(nA,nB)
    * candidates, of which `refSize` are kept; each reference pair gets one
    * decoy sharing its row (the classic "similar sibling attribute").
    */
  def make(name: String, nA: Int, nB: Int, refSize: Int, hardFraction: Double,
           seed: Long, screenW: Int = 1280, screenH: Int = 720): MatchingTask = {
    // References need distinct rows only: real reference matches are not
    // 1:1 (several source attributes may map to one target attribute), and
    // the PO task has 142 source vs only 46 target attributes.
    require(refSize <= nA, s"refSize $refSize too large for ${nA}x$nB")
    val rnd = new java.util.Random(seed)
    val aPerm = rnd.ints(0, nA).distinct().limit(nA.toLong).toArray
    val ref = (0 until refSize).map(k => RefPair(aPerm(k), rnd.nextInt(nB))).toVector
    val diff = ref.map { p =>
      val hard = rnd.nextDouble() < hardFraction
      p -> (if (hard) 0.35 + rnd.nextDouble() * 0.25 else 0.85 + rnd.nextDouble() * 0.15)
    }.toMap
    val refSet = ref.toSet
    val decoys = ref.flatMap { p =>
      // A decoy in the same row, pointing at a wrong column.
      val wrongB = Iterator.continually(rnd.nextInt(nB))
        .find(b => !refSet.contains(RefPair(p.aIdx, b))).get
      Some(RefPair(p.aIdx, wrongB))
    }
    MatchingTask(name, nA, nB, ref, diff, decoys, screenW, screenH)
  }

  /** Purchase Order schema pair: 142 x 46 attributes (Section IV-A).
    * Reference size 80 reproduces the paper's population recall (~.33 with
    * ~55 decisions and precision ~.55, thorough fraction ~.15 — DESIGN.md).
    */
  def po(seed: Long = 101L): MatchingTask =
    make("PO", nA = 142, nB = 46, refSize = 80, hardFraction = 0.35, seed = seed)

  /** OAEI ontology pair: 121 x 109 elements, harder mix (domain shift). */
  def oaei(seed: Long = 202L): MatchingTask =
    make("OAEI", nA = 121, nB = 109, refSize = 85, hardFraction = 0.5, seed = seed)

  /** Thalia-like warm-up task (9-12 attributes) used by the Qual. Test and
    * Self-Assess baselines.
    */
  def warmup(seed: Long = 303L): MatchingTask =
    make("WARMUP", nA = 12, nB = 9, refSize = 8, hardFraction = 0.25, seed = seed)
}
