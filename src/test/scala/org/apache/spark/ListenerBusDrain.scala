package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so a
  * test's listener has seen all jobs submitted before the call. It sits in
  * this package because the bus is private to Spark.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
