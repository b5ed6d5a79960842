package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Experiments, ExpertFilter, NeuralFeatures, StudyHandle}
import repro.synth.MatcherSim

/** spark-submit entrypoint for Section IV-F (Figures 10-11 as tables):
  * expert filtering + fused-match quality, full and early identification.
  */
object ExpertFilterJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("mexi-expert-filter")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val cfg = NeuralFeatures.Config()
      val po = new StudyHandle(spark, MatcherSim.poStudy())
      val (_, artifacts) = Experiments.tableIIa(po, cfg)
      val thresholds = artifacts.head.p50.thresholds

      val cvPred = artifacts.flatMap(_.fit50.predictions).toMap
      println(Experiments.formatUtilization(
        "Fig. 10: quality of selected matchers (full histories)",
        Experiments.utilization(po, cvPred, thresholds)))

      val truncated = new StudyHandle(spark, ExpertFilter.truncateStudy(po.study, 30))
      val early = Experiments.earlyPredictions(po, truncated, artifacts, cfg)
      println(Experiments.formatUtilization(
        "Fig. 11: quality of early-identified matchers (first 30 decisions)",
        Experiments.utilization(po, early, thresholds)))
    } finally spark.stop()
  }
}
