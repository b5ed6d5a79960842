package perfbench

import java.nio.file.{Files, Path}
import java.time.{Duration, Instant}
import jdk.jfr.Recording
import jdk.jfr.consumer.RecordingFile
import scala.jdk.CollectionConverters._

/** JFR execution sampling, reduced to CPU seconds per module for each timed
  * pass. One recording runs from JVM start to the end of the run: starting
  * JFR costs seconds of extra JIT work, which must not land in a pass.
  *
  * A sample belongs to the first frame, from the top of its stack, that is
  * either in `repro.<module>` or in Spark: a repro frame gives its module
  * (`nn`, `ml`, `core`, `synth`), a Spark frame gives `spark`, and a stack
  * with neither is `other`. JDK and Scala library frames are charged to
  * their caller, so each figure is the module's self time.
  */
final class CpuProfile(dir: Path) {
  private val Period = Duration.ofMillis(10)
  private val rec = new Recording()
  rec.enable("jdk.ExecutionSample").withPeriod(Period)
  rec.start()

  /** Stops the recording; module CPU seconds within each (start, end). */
  def stop(windows: Seq[(Instant, Instant)]): Seq[Map[String, Double]] = {
    rec.stop()
    val file = Files.createTempFile(dir, "run", ".jfr")
    try {
      rec.dump(file)
      rec.close()
      val samples = RecordingFile.readAllEvents(file).asScala.toVector
        .filter(_.getEventType.getName == "jdk.ExecutionSample")
        .map(e => e.getStartTime -> CpuProfile.moduleOf(
          Option(e.getStackTrace).map(_.getFrames.asScala.toSeq).getOrElse(Nil)
            .map(_.getMethod.getType.getName)))
      windows.map { case (from, to) =>
        val counts = samples.collect { case (t, m) if !t.isBefore(from) && t.isBefore(to) => m }
          .groupBy(identity).view.mapValues(_.size).toMap
        CpuProfile.Modules.map(m =>
          s"cpu_s.$m" -> counts.getOrElse(m, 0) * Period.toNanos / 1e9).toMap
      }
    } finally Files.deleteIfExists(file)
  }
}

object CpuProfile {
  val Modules: Vector[String] = Vector("nn", "ml", "core", "synth", "spark", "other")
  private val ReproModules = Set("nn", "ml", "core", "synth")

  /** Module of a stack given as class names, innermost first. */
  def moduleOf(classes: Seq[String]): String =
    classes.iterator.map { c =>
      if (c.startsWith("repro.")) {
        val m = c.split('.')(1)
        Some(if (ReproModules(m)) m else "other")
      } else if (c.startsWith("org.apache.spark.")) Some("spark")
      else None
    }.collectFirst { case Some(m) => m }.getOrElse("other")
}
