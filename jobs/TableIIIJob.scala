package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** spark-submit entrypoint for Table III (feature-set ablation). */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mexi-table-iii")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val po = new StudyHandle(spark, MatcherSim.poStudy())
      val (_, artifacts) = Experiments.tableIIa(po, NeuralFeatures.Config())
      val rows = Experiments.tableIII(artifacts)
      println(Experiments.formatAccuracyTable(
        "Table III: MExI_50 feature-set ablation (PO)", rows))
    } finally spark.stop()
  }
}
