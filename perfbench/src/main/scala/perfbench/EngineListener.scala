package perfbench

import org.apache.spark.Success
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark engine counters for one traced pass. Jobs are attributed to the
  * span open on the submitting thread when they started (the local
  * property [[Spans.Key]]). Blocked time is the union of job intervals, per
  * span and overall, so concurrent jobs are not counted twice. Callbacks
  * run on the listener-bus thread; read only after [[org.apache.spark.ListenerDrain]].
  */
final class EngineListener extends SparkListener {
  private final class Blocked {
    var active = 0
    var since = 0L
    var ms = 0L
    def open(t: Long): Unit = { if (active == 0) since = t; active += 1 }
    def close(t: Long): Unit = { active -= 1; if (active == 0) ms += t - since }
  }

  private val jobSpan = mutable.Map.empty[Int, String]
  private val bySpan = mutable.Map.empty[String, Blocked]
  private val overall = new Blocked
  private var jobs = 0L
  private var stages = 0L
  private var tasks = 0L
  private var failedTasks = 0L
  private var emptyTasks = 0L
  private var taskMs = 0L
  private var shuffleBytes = 0L

  def reset(): Unit = synchronized {
    jobSpan.clear(); bySpan.clear()
    overall.active = 0; overall.ms = 0
    jobs = 0; stages = 0; tasks = 0; failedTasks = 0; emptyTasks = 0
    taskMs = 0; shuffleBytes = 0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Spans.Key)))
      .getOrElse("none")
    jobSpan(e.jobId) = span
    jobs += 1
    overall.open(e.time)
    bySpan.getOrElseUpdate(span, new Blocked).open(e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.remove(e.jobId).foreach { span =>
      overall.close(e.time)
      bySpan(span).close(e.time)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.reason != Success) failedTasks += 1
    Option(e.taskMetrics).foreach { m =>
      taskMs += m.executorRunTime
      if (m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead == 0) emptyTasks += 1
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Counters of the pass; `cores` is the local-mode slot count. */
  def metrics(cores: Int): Map[String, Double] = synchronized {
    val jobS = overall.ms / 1e3
    val taskS = taskMs / 1e3
    Map(
      "spark.jobs" -> jobs.toDouble,
      "spark.stages" -> stages.toDouble,
      "spark.tasks" -> tasks.toDouble,
      "spark.failed_tasks" -> failedTasks.toDouble,
      "spark.empty_task_frac" -> (if (tasks == 0) 0.0 else emptyTasks.toDouble / tasks),
      "spark.job_s" -> jobS,
      "spark.task_s" -> taskS,
      "spark.slot_util" -> (if (jobS == 0) 0.0 else taskS / (jobS * cores)),
      "spark.shuffle_mb" -> shuffleBytes / 1e6,
    ) ++ Spans.All.map { s =>
      s"${s.stripSuffix("_s")}.spark_s" -> bySpan.get(s).map(_.ms / 1e3).getOrElse(0.0)
    }
  }
}
