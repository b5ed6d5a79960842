package repro.ml

/** Small statistics toolbox used across the MExI reproduction.
  *
  * Everything here is deterministic and driver-side: the inputs are
  * per-matcher summaries (at most a few hundred values), never full
  * DataFrames.
  */
object Stats {

  /** Goodman–Kruskal gamma between a confidence vector and a binary
    * correctness vector, as used by Eq. 4 of the paper (Resolution).
    *
    * Pairs are formed between one correct and one incorrect decision;
    * a pair is concordant when the correct decision carries the higher
    * confidence, discordant when lower, and ties are dropped — which is
    * exactly gamma over the 2 x k table of (correct, confidence).
    *
    * @return (gamma, twoSidedPValue). When no (correct, incorrect) pair
    *         exists gamma is 0 with p = 1 (nothing to correlate).
    */
  def gammaTest(conf: Seq[Double], correct: Seq[Boolean]): (Double, Double) = {
    require(conf.length == correct.length, "conf/correct length mismatch")
    val pos = conf.zip(correct).collect { case (c, true) => c }
    val neg = conf.zip(correct).collect { case (c, false) => c }
    var nc = 0L; var nd = 0L
    for (p <- pos; q <- neg) {
      if (p > q) nc += 1 else if (p < q) nd += 1
    }
    val pairs = nc + nd
    if (pairs == 0) return (0.0, 1.0)
    val gamma = (nc - nd).toDouble / pairs
    val n = conf.length
    // Normal approximation z = gamma * sqrt(pairs / (n (1 - gamma^2))).
    // For |gamma| -> 1 the statistic degenerates; with few pairs we fall
    // back to the exact permutation probability of such an extreme split,
    // mirroring the paper's Example 1 where gamma = 1 yields p = 0.5.
    val p =
      if (math.abs(gamma) >= 1.0 - 1e-12) exactDegenerateP(pos.size, neg.size)
      else {
        val z = gamma * math.sqrt(pairs / (n * (1.0 - gamma * gamma)))
        2.0 * (1.0 - normalCdf(math.abs(z)))
      }
    (gamma, math.min(1.0, p))
  }

  /** Probability that a uniformly random interleaving of nPos and nNeg
    * distinct values is perfectly separated (|gamma| = 1): 2 / C(n, nPos).
    */
  private def exactDegenerateP(nPos: Int, nNeg: Int): Double = {
    val n = nPos + nNeg
    val logC = logChoose(n, nPos)
    math.min(1.0, 2.0 * math.exp(-logC))
  }

  private def logChoose(n: Int, k: Int): Double = {
    var s = 0.0
    for (i <- 1 to k) s += math.log((n - k + i).toDouble) - math.log(i.toDouble)
    s
  }

  /** Standard normal CDF via the Abramowitz–Stegun erf approximation. */
  def normalCdf(x: Double): Double = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

  private def erf(x: Double): Double = {
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t
      - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  /** Linear-interpolated percentile (p in [0, 100]) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of empty sample")
    require(p >= 0 && p <= 100, s"percentile out of range: $p")
    val s = xs.sorted
    if (s.length == 1) return s.head
    val rank = p / 100.0 * (s.length - 1)
    val lo = rank.toInt
    val hi = math.min(lo + 1, s.length - 1)
    val frac = rank - lo
    s(lo) * (1 - frac) + s(hi) * frac
  }

  def mean(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.length

  def stddev(xs: Seq[Double]): Double = {
    if (xs.length < 2) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.length - 1))
  }

  /** Sample standard deviation by Welford's one-pass update over `xs` in
    * order, the update Spark's `stddev_samp` applies; 0 below two values.
    */
  def onlineStddev(xs: Iterable[Double]): Double = {
    var n = 0.0; var avg = 0.0; var m2 = 0.0
    xs.foreach { x =>
      n += 1.0
      val delta = x - avg
      val deltaN = delta / n
      avg += deltaN
      m2 += delta * (delta - deltaN)
    }
    if (n < 2) 0.0 else math.sqrt(m2 / (n - 1.0))
  }

  /** Pearson correlation; 0 when either side is constant. */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    require(xs.length == ys.length, "pearson length mismatch")
    if (xs.length < 2) return 0.0
    val mx = mean(xs); val my = mean(ys)
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    for (i <- xs.indices) {
      val dx = xs(i) - mx; val dy = ys(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
    }
    if (sxx == 0 || syy == 0) 0.0 else sxy / math.sqrt(sxx * syy)
  }
}
