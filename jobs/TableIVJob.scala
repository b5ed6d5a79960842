package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, Labels, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** spark-submit entrypoint for Table IV (top-2 informative features). */
object TableIVJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mexi-table-iv")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val po = new StudyHandle(spark, MatcherSim.poStudy())
      val (_, artifacts) = Experiments.tableIIa(po, NeuralFeatures.Config())
      val top2 = Experiments.tableIV(artifacts)
      println("== Table IV: top-2 informative features (permutation importance) ==")
      for (s <- Vector("lrsm", "mou", "beh", "seq", "spa")) {
        val cells = Labels.Names.map(l => s"$l: ${top2((s, l)).mkString(", ")}")
        println(f"$s%-6s ${cells.mkString(" | ")}")
      }
    } finally spark.stop()
  }
}
