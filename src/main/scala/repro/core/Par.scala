package repro.core

import java.util.concurrent.{ForkJoinTask, RecursiveTask}
import scala.jdk.CollectionConverters._

/** Runs independent jobs on the JVM's common fork-join pool.
  *
  * `map` keeps input order, so its result equals `xs.map(f)` whenever `f`
  * is deterministic per element and shares no mutable state: every job of
  * the fold owns its seed and its net or classifier, and only reads what
  * it shares. Calls may nest; a waiting task helps run queued ones instead
  * of blocking a pool thread. An exception thrown by `f` reaches the
  * caller with its type, and the caller runs one of the jobs itself.
  *
  * Do not call `map` while holding a lock that the jobs may need, such as
  * inside a `lazy val` initialiser of an object the jobs also read.
  */
object Par {

  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    val tasks = xs.map(x => new RecursiveTask[B] { def compute(): B = f(x) }).toVector
    ForkJoinTask.invokeAll(tasks.asJava)
    tasks.map(_.join())
  }
}
