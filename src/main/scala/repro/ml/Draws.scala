package repro.ml

/** Uniform draws without replacement from a `java.util.Random`. */
object Draws {

  /** The first `k` distinct values of `rnd.ints(0, bound)`, in draw order.
    * This equals `rnd.ints(0, bound).distinct().limit(k).toArray` and
    * leaves `rnd` in the same state, without the stream's per-call
    * pipeline. Each draw is the JDK's bounded `nextInt` of that stream
    * (`jdk.internal.util.random.RandomSupport.boundedNextInt`): the low
    * bits of `nextInt()` for a power-of-two bound, otherwise `nextInt() >>> 1`
    * reduced modulo `bound` and redrawn when it falls in the incomplete
    * last block. A membership scan over the values kept so far stays
    * cheap at the feature and row counts this is used for.
    */
  def distinctInts(rnd: java.util.Random, bound: Int, k: Int): Array[Int] = {
    require(bound > 0 && k >= 0 && k <= bound, s"cannot draw $k distinct ints below $bound")
    val out = new Array[Int](k)
    val m = bound - 1
    var n = 0
    while (n < k) {
      var r = rnd.nextInt()
      if ((bound & m) == 0) r &= m
      else {
        var u = r >>> 1
        r = u % bound
        while (u + m - r < 0) { u = rnd.nextInt() >>> 1; r = u % bound }
      }
      var seen = false
      var j = 0
      while (!seen && j < n) { seen = out(j) == r; j += 1 }
      if (!seen) { out(n) = r; n += 1 }
    }
    out
  }
}
