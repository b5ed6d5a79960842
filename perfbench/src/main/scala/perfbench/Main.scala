package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.time.Instant
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Benchmark harness: one client in one JVM runs a workload's passes in a
  * closed loop and prints one JSON result line.
  *
  *   Main --workload fold_po|etl_crowd --seed N --seconds S --trace 0|1
  *        --work-dir DIR [--untraced-wall W] [--smoke]
  *
  * Set-up is timed from JVM start: it covers Spark start and simulating the
  * inputs. Passes then run back to back until `--seconds` of timed region
  * have elapsed, at least one. The first pass runs in a cold JVM, as a
  * table job does; `wall_s` is the mean time per pass. Set-up and pass
  * times exclude the share of CPU time the hypervisor stole ([[Steal]]).
  * Each pass's outputs are checked outside its timed region. With `--trace 0` the end-to-end
  * metrics are printed. With `--trace 1` every pass is traced (spans, Spark
  * listener, JVM counters, JFR) and the per-layer metrics are printed;
  * `--untraced-wall` is the untraced `wall_s` of the same seed, from which
  * the tracing overhead is reported.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        workDir: String, untracedWall: Double, smoke: Boolean)

  private def parse(args: List[String], o: Opts): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--work-dir" :: v :: rest => parse(rest, o.copy(workDir = v))
    case "--untraced-wall" :: v :: rest => parse(rest, o.copy(untracedWall = v.toDouble))
    case "--smoke" :: rest => parse(rest, o.copy(smoke = true))
    case Nil => o
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  /** Local-mode slots: this machine's cores, at most four. */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def json(correct: Boolean, attempted: Int, failed: Int,
                   metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  def main(args: Array[String]): Unit = {
    val steal0 = Steal.sample()
    val o = parse(args.toList,
      Opts("", 1L, 10.0, trace = false, ".", untracedWall = Double.NaN, smoke = false))
    val work = Paths.get(o.workDir).toAbsolutePath
    val profile =
      if (o.trace) Some(new CpuProfile(Files.createDirectories(work.resolve("jfr")))) else None
    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      // The settings of the repository's test and bench suites.
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      .getOrCreate()
    try run(o, spark, profile, steal0) finally spark.stop()
  }

  /** `wall` is the pass's wall time with the stolen share taken out. */
  private final case class Timed(wall: Double, pass: Pass, layers: Map[String, Double],
                                 window: (Instant, Instant))

  private def run(o: Opts, spark: SparkSession, profile: Option[CpuProfile],
                  steal0: Steal.Sample): Unit = {
    val sc = spark.sparkContext
    val workload = Workload(o.workload, spark, o.seed, o.smoke)
    val spans = new Spans(sc)
    spans.enabled = o.trace
    val listener = new EngineListener
    val os = ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    def gcSeconds = gcs.map(_.getCollectionTime).sum / 1e3
    val jit = ManagementFactory.getCompilationMXBean
    val classes = ManagementFactory.getClassLoadingMXBean
    val setupS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3 *
      (1 - Steal.fraction(steal0, Steal.sample()))

    def timedPass(): Timed = {
      spans.reset()
      if (o.trace) {
        sc.addSparkListener(listener)
        listener.reset()
      }
      val cpu0 = os.getProcessCpuTime / 1e9
      val gc0 = gcSeconds
      val jit0 = jit.getTotalCompilationTime / 1e3
      val classes0 = classes.getTotalLoadedClassCount
      val from = Instant.now()
      val steal1 = Steal.sample()
      val t0 = System.nanoTime()
      val pass = workload.pass(spans)
      val rawWall = (System.nanoTime() - t0) / 1e9
      val stolen = Steal.fraction(steal1, Steal.sample())
      val wall = rawWall * (1 - stolen)
      val to = Instant.now()
      val jitS = jit.getTotalCompilationTime / 1e3 - jit0
      val loaded = (classes.getTotalLoadedClassCount - classes0).toDouble
      val layers =
        if (!o.trace) Map.empty[String, Double]
        else {
          val cpu = os.getProcessCpuTime / 1e9 - cpu0
          val gc = gcSeconds - gc0
          ListenerDrain(sc)
          sc.removeSparkListener(listener)
          val spanS = Spans.All.map(s => s -> spans.seconds.getOrElse(s, 0.0)).toMap
          listener.metrics(Cores) ++ spanS ++ Map(
            "jvm.cpu_s" -> cpu,
            "jvm.cpu_util" -> cpu / (rawWall * Cores),
            "vm.steal_frac" -> stolen,
            "jvm.gc_s" -> gc,
            "jvm.jit_s" -> jitS,
            "jvm.classes_loaded" -> loaded,
            "trace.span_share" -> spanS.values.sum / rawWall,
          )
        }
      Console.err.println(f"pass ${o.workload} seed=${o.seed} wall_s=$wall%.3f " +
        f"raw_wall_s=$rawWall%.3f " +
        f"steal=$stolen%.3f jit_s=$jitS%.1f classes=$loaded%.0f " +
        spans.seconds.map { case (k, v) => f"$k=$v%.2f" }.mkString(" "))
      Timed(wall, pass, layers, (from, to))
    }

    var checked = 0
    var failedChecks = 0
    def record(cs: Vector[(String, Boolean)]): Boolean = {
      checked += cs.size
      cs.collect { case (n, false) => n }.foreach { n =>
        Console.err.println(s"check failed: $n")
        failedChecks += 1
      }
      cs.forall(_._2)
    }

    var done = Vector.empty[Timed]
    var failedPasses = 0
    while (done.isEmpty || done.map(_.wall).sum < o.seconds) {
      done.lastOption.foreach { t => t.pass.release(); spark.catalog.clearCache() }
      val t = timedPass()
      val digestStable =
        "digest.stable" -> (t.pass.digest == done.headOption.getOrElse(t).pass.digest)
      if (!record(t.pass.checks() :+ digestStable)) failedPasses += 1
      done :+= t
    }

    // Heap after a full GC with the last pass's outputs still reachable.
    val last = done.last
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    if (!record(last.pass.oracleChecks()) && failedPasses == 0) failedPasses = 1
    last.pass.release()
    spark.catalog.clearCache()

    val wallS = done.map(_.wall).sum / done.size
    println(s"digest ${o.workload} seed=${o.seed} ${last.pass.digest}")
    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) Seq(
        ("wall_s", wallS, "s"),
        ("setup_s", setupS, "s"),
        ("retained_heap_mb", heapMb, "MB"))
      else {
        val traced = profile.fold(done)(p => done.zip(p.stop(done.map(_.window)))
          .map { case (t, cpu) => t.copy(layers = t.layers ++ cpu) })
        val layers = traced.head.layers.keys.map(k => k -> median(traced.map(_.layers(k)))).toMap
        Metrics.perLayer(layers ++ last.pass.figures ++ Map(
          "trace.overhead_s" -> (wallS - o.untracedWall),
          "check_fail_frac" -> failedChecks.toDouble / checked))
      }
    println(json(failedChecks == 0, done.size, failedPasses, metrics))
  }
}

/** Units of the per-layer metrics, in print order. */
object Metrics {
  private val Counts = Set("jvm.classes_loaded", "spark.jobs", "spark.stages", "spark.tasks",
    "spark.failed_tasks")

  def unitOf(name: String): String =
    if (name.startsWith("work.") || Counts(name)) "count"
    else if (name == "spark.shuffle_mb") "MB"
    else if (name.endsWith("_s") || name.startsWith("cpu_s.")) "s"
    else "ratio"

  def perLayer(values: Map[String, Double]): Seq[(String, Double, String)] =
    values.toVector.sortBy(_._1).map { case (n, v) => (n, v, unitOf(n)) }
}
