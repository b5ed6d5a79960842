package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** spark-submit entrypoint for Table IIa (PO expert identification).
  *
  *   spark-submit --class repro.jobs.TableIIaJob target/scala-2.13/repro_2.13-*.jar
  */
object TableIIaJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mexi-table-iia")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val po = new StudyHandle(spark, MatcherSim.poStudy())
      val (rows, _) = Experiments.tableIIa(po, NeuralFeatures.Config())
      println(Experiments.formatAccuracyTable(
        "Table IIa: Schema Matching (PO), 5-fold CV", rows))
    } finally spark.stop()
  }
}
