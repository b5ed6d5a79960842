package repro.bench

import repro.SparkSpec
import repro.core.{Experiments, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** Shared, lazily computed state for all bench suites: one PO population
  * (106 matchers), one OAEI population (34 matchers), and the one
  * `Experiments.run` whose tables every suite prints and checks. The
  * first suite that reads `run` computes the whole experiment. Everything
  * is deterministic in the fixed seeds.
  */
object BenchState {
  lazy val spark = SparkSpec.shared
  lazy val po = new StudyHandle(spark, MatcherSim.poStudy())
  lazy val oaei = new StudyHandle(spark, MatcherSim.oaeiStudy())

  lazy val run: Experiments.Run = Experiments.run(po, oaei, NeuralFeatures.Config())

  def row[R <: Experiments.Row](rows: Vector[R], m: String): R =
    rows.find(_.method == m).getOrElse(sys.error(s"missing method $m"))
}
