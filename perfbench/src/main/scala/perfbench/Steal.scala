package perfbench

import java.nio.file.{Files, Paths}

/** CPU time the hypervisor took from this VM, from the `cpu` line of
  * /proc/stat. On a shared VM, other guests' load stretches a pass by the
  * share of its runnable time that was stolen; the benchmark's times are
  * divided back by that share so that they measure the program, not its
  * neighbours. Where /proc/stat is missing nothing is stolen.
  */
object Steal {

  /** (jiffies the VM ran: user, nice, system, irq, softirq; jiffies stolen). */
  final case class Sample(ran: Long, stolen: Long)

  def sample(): Sample = {
    val path = Paths.get("/proc/stat")
    if (!Files.isReadable(path)) Sample(0, 0)
    else {
      val f = Files.readAllLines(path).get(0).trim.split("\\s+").drop(1).map(_.toLong)
      Sample(f(0) + f(1) + f(2) + f(5) + f(6), if (f.length > 7) f(7) else 0L)
    }
  }

  /** Share of the VM's runnable CPU time stolen between two samples. */
  def fraction(from: Sample, to: Sample): Double = {
    val ran = to.ran - from.ran
    val stolen = to.stolen - from.stolen
    if (ran + stolen <= 0) 0.0 else stolen.toDouble / (ran + stolen)
  }
}
