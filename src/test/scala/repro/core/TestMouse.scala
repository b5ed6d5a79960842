package repro.core

/** Mouse events written as [[MouseEvent]] rows in a test, as the columns
  * the kernels read.
  */
object TestMouse {
  /** `events` as one matcher's columns, in the order given, whatever their
    * matcher ids.
    */
  def columns(events: Seq[MouseEvent]): MouseColumns =
    MouseStream.fromEvents(events.map(_.copy(matcherId = 0L)))(0L)
}
