package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** spark-submit entrypoint for Table IIb (OAEI generalizability). */
object TableIIbJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mexi-table-iib")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val po = new StudyHandle(spark, MatcherSim.poStudy())
      val oaei = new StudyHandle(spark, MatcherSim.oaeiStudy())
      val rows = Experiments.tableIIb(po, oaei, NeuralFeatures.Config())
      println(Experiments.formatAccuracyTable(
        "Table IIb: Ontology Alignment (OAEI), PO-trained", rows))
    } finally spark.stop()
  }
}
