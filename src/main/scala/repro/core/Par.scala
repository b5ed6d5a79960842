package repro.core

import java.util.concurrent.{ForkJoinPool, ForkJoinWorkerThread, RecursiveTask}

/** Runs independent jobs on a fork-join pool with one worker per available
  * processor.
  *
  * `map` keeps input order, so its result equals `xs.map(f)` whenever `f`
  * is deterministic per element and shares no mutable state: every job of
  * the fold owns its seed and its net or classifier, and only reads what
  * it shares. Jobs start in input order, so put the longest first. A
  * caller from outside the pool submits them in order and waits, so every
  * worker runs jobs. A call from inside the pool runs the first job itself
  * while idle workers steal the next ones in order. Calls may nest; a
  * waiting worker helps run queued jobs instead of blocking. An exception
  * thrown by `f` reaches the caller with its type, and the jobs not yet
  * started are cancelled.
  *
  * Do not call `map` while holding a lock that the jobs may need, such as
  * inside a `lazy val` initialiser of an object the jobs also read.
  */
object Par {

  private val pool = new ForkJoinPool(Runtime.getRuntime.availableProcessors)

  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] = {
    val tasks = xs.iterator.map(x => new RecursiveTask[B] { def compute(): B = f(x) }).toVector
    try {
      Thread.currentThread match {
        case w: ForkJoinWorkerThread if w.getPool eq pool =>
          // Thieves take forked jobs from the end this thread pushed first.
          tasks.drop(1).foreach(_.fork())
          tasks.headOption.foreach(_.invoke())
        case _ => tasks.foreach(pool.execute(_))
      }
      tasks.map(_.join())
    } catch {
      case e: Throwable =>
        tasks.foreach(_.cancel(false))
        throw e
    }
  }
}
