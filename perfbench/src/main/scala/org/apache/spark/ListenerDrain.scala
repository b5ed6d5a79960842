package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so the
  * benchmark's listener has seen all jobs of a pass before it is read.
  * It sits in this package because the bus is private to Spark.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
