package perfbench

import org.apache.spark.SparkContext
import scala.collection.mutable

/** Wall-clock spans around the benchmark's calls into the pipeline's public
  * entry points. A span also tags every Spark job submitted inside it with
  * a local property, which [[EngineListener]] reads to attribute engine
  * time to the enclosing span. While disabled a span is only the call, so
  * untraced passes measure the program alone.
  */
final class Spans(sc: SparkContext) {
  var enabled: Boolean = false
  val seconds: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val outer = sc.getLocalProperty(Spans.Key)
      sc.setLocalProperty(Spans.Key, name)
      val t0 = System.nanoTime()
      try body
      finally {
        seconds(name) = seconds.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
        sc.setLocalProperty(Spans.Key, outer)
      }
    }

  def reset(): Unit = seconds.clear()
}

object Spans {
  val Key = "perfbench.span"

  /** Every span a workload may open; a span a workload does not open
    * reads 0. Spans never nest, so their sum is the traced share of a pass.
    */
  val Study: Vector[String] = Vector("study.handle_s", "study.measures_s", "study.baseFeatures_s",
    "study.heatMaps_s", "study.warmupMeasures_s", "study.meanConf_s")
  val Fold: Vector[String] = Vector("fold.computeFold_s", "fold.baselineRows_s",
    "fold.tableIII_s", "fold.tableIV_s")
  val Etl: Vector[String] = Vector("etl.consensus_s", "etl.sequences_s", "etl.fused_s")
  val All: Vector[String] = Study ++ Fold ++ Etl
}
