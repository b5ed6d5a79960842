package repro.bench

import repro.SparkSpec
import repro.core.{Experiments, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** Shared, lazily computed state for all bench suites: one PO population
  * (106 matchers), one OAEI population (34 matchers), and the 5-fold
  * Table IIa artifacts that tables III/IV and Section IV-F reuse.
  * Everything is deterministic in the fixed seeds.
  */
object BenchState {
  lazy val spark = SparkSpec.shared
  lazy val po = new StudyHandle(spark, MatcherSim.poStudy())
  lazy val oaei = new StudyHandle(spark, MatcherSim.oaeiStudy())
  val cfg: NeuralFeatures.Config = NeuralFeatures.Config()

  lazy val (tableIIaRows, artifacts) = Experiments.tableIIa(po, cfg)

  def row(rows: Vector[Experiments.TableRow], m: String): Experiments.TableRow =
    rows.find(_.method == m).getOrElse(sys.error(s"missing method $m"))
}
