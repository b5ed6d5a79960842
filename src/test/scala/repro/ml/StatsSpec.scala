package repro.ml

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  // --- Goodman–Kruskal gamma (Eq. 4 substrate) ---

  test("gamma is 1 for perfectly separated confidences (paper Example 1)") {
    // Final matrix of Table I: confidences 1.0, 0.5, 0.5 correct; 0.45 wrong.
    val (g, p) = Stats.gammaTest(Seq(1.0, 0.5, 0.5, 0.45), Seq(true, true, true, false))
    assert(g === 1.0)
    assert(p > 0.05, "degenerate separation on 4 decisions must not be significant")
  }

  test("gamma is -1 when wrong decisions carry the higher confidence") {
    val (g, _) = Stats.gammaTest(Seq(0.2, 0.3, 0.9), Seq(true, true, false))
    assert(g === -1.0)
  }

  test("gamma is 0 for balanced concordant/discordant pairs") {
    val (g, p) = Stats.gammaTest(Seq(0.9, 0.1, 0.9, 0.1), Seq(true, true, false, false))
    assert(g === 0.0)
    assert(p > 0.999) // erf approximation is exact only to ~1e-9 at z = 0
  }

  test("gamma drops tied pairs") {
    // All confidences equal: no concordant or discordant pair exists.
    val (g, p) = Stats.gammaTest(Seq(0.5, 0.5, 0.5), Seq(true, false, true))
    assert(g === 0.0 && p === 1.0)
  }

  test("gamma with single-class correctness is 0 with p = 1") {
    assert(Stats.gammaTest(Seq(0.1, 0.9), Seq(true, true)) === ((0.0, 1.0)))
    assert(Stats.gammaTest(Seq(0.1, 0.9), Seq(false, false)) === ((0.0, 1.0)))
  }

  test("gamma on empty input is 0 with p = 1") {
    assert(Stats.gammaTest(Seq.empty, Seq.empty) === ((0.0, 1.0)))
  }

  test("gamma counts concordant minus discordant over pairs") {
    // correct: 0.8, 0.4; incorrect: 0.6 -> pairs (0.8 vs 0.6)=c, (0.4 vs 0.6)=d
    val (g, _) = Stats.gammaTest(Seq(0.8, 0.4, 0.6), Seq(true, true, false))
    assert(g === 0.0)
  }

  test("large well-separated samples are significant") {
    val conf = Seq.fill(20)(0.9) ++ Seq.fill(20)(0.8) ++ Seq.fill(20)(0.2) ++ Seq.fill(20)(0.1)
    val corr = Seq.fill(40)(true) ++ Seq.fill(40)(false)
    val (g, p) = Stats.gammaTest(conf, corr)
    assert(g === 1.0)
    assert(p < 0.05)
  }

  test("moderate association on a large sample is significant") {
    val rnd = new java.util.Random(5)
    val data = (0 until 200).map { _ =>
      val correct = rnd.nextBoolean()
      val c = (if (correct) 0.6 else 0.4) + rnd.nextGaussian() * 0.15
      (c, correct)
    }
    val (g, p) = Stats.gammaTest(data.map(_._1), data.map(_._2))
    assert(g > 0.3)
    assert(p < 0.05)
  }

  test("gamma negates when correctness is flipped (property)") {
    val rnd = new java.util.Random(11)
    for (_ <- 0 until 100) {
      val pairs = Seq.fill(12)((rnd.nextDouble(), rnd.nextBoolean()))
      val (g1, _) = Stats.gammaTest(pairs.map(_._1), pairs.map(_._2))
      val (g2, _) = Stats.gammaTest(pairs.map(_._1), pairs.map(!_._2))
      assert(math.abs(g1 + g2) < 1e-12)
    }
  }

  test("gamma is always within [-1, 1] (property)") {
    val rnd = new java.util.Random(13)
    for (_ <- 0 until 100) {
      val pairs = Seq.fill(15)((rnd.nextDouble(), rnd.nextBoolean()))
      val (g, p) = Stats.gammaTest(pairs.map(_._1), pairs.map(_._2))
      assert(g >= -1.0 && g <= 1.0)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("gamma equals the pairwise loop bit for bit, NaN and signed-zero ties included") {
    // The pairwise count gammaTest replaced, with its p-value.
    def reference(conf: Seq[Double], correct: Seq[Boolean]): (Double, Double) = {
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
      val p =
        if (math.abs(gamma) >= 1.0 - 1e-12) {
          val logC = (1 to pos.size).map(i =>
            math.log((n - pos.size + i).toDouble) - math.log(i.toDouble)).foldLeft(0.0)(_ + _)
          math.min(1.0, 2.0 * math.exp(-logC))
        } else {
          val z = gamma * math.sqrt(pairs / (n * (1.0 - gamma * gamma)))
          2.0 * (1.0 - Stats.normalCdf(math.abs(z)))
        }
      (gamma, math.min(1.0, p))
    }
    val values = Gen.frequency(
      1 -> Gen.const(Double.NaN), 1 -> Gen.oneOf(0.0, -0.0), 2 -> Gen.oneOf(0.25, 0.5, 1.0),
      1 -> Gen.oneOf(Double.PositiveInfinity, Double.NegativeInfinity, -0.5),
      3 -> Gen.choose(0.0, 1.0))
    val samples = Gen.choose(0, 60).flatMap(n =>
      Gen.listOfN(n, Gen.zip(values, Gen.oneOf(true, false))))
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(17L))
    def bits(r: (Double, Double)) =
      (java.lang.Double.doubleToRawLongBits(r._1), java.lang.Double.doubleToRawLongBits(r._2))
    val res = Test.check(params, Prop.forAllNoShrink(samples) { s =>
      val (conf, correct) = s.unzip
      Prop(bits(Stats.gammaTest(conf, correct)) == bits(reference(conf, correct)))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  // --- percentile ---

  test("percentile interpolates linearly") {
    val xs = Seq(0.0, 10.0)
    assert(Stats.percentile(xs, 0) === 0.0)
    assert(Stats.percentile(xs, 100) === 10.0)
    assert(Stats.percentile(xs, 50) === 5.0)
    assert(Stats.percentile(xs, 20) === 2.0)
  }

  test("percentile of a singleton is that value") {
    assert(Stats.percentile(Seq(3.14), 80) === 3.14)
  }

  test("percentile sorts its input") {
    assert(Stats.percentile(Seq(5.0, 1.0, 3.0), 50) === 3.0)
  }

  test("percentile 80 of 1..5 is 4.2") {
    assert(math.abs(Stats.percentile(Seq(1.0, 2.0, 3.0, 4.0, 5.0), 80) - 4.2) < 1e-12)
  }

  test("percentile rejects empty input and bad p") {
    intercept[IllegalArgumentException](Stats.percentile(Seq.empty, 50))
    intercept[IllegalArgumentException](Stats.percentile(Seq(1.0), 120))
  }

  // --- mean / stddev / pearson / slope ---

  test("mean and stddev match hand computation") {
    assert(Stats.mean(Seq(1.0, 2.0, 3.0)) === 2.0)
    assert(math.abs(Stats.stddev(Seq(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)) - 2.138) < 1e-3)
    assert(Stats.stddev(Seq(1.0)) === 0.0)
    assert(Stats.mean(Seq.empty) === 0.0)
  }

  test("pearson of a perfect linear relation is 1 (and -1 when negated)") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Stats.pearson(xs, xs.map(2 * _ + 1)) - 1.0) < 1e-12)
    assert(math.abs(Stats.pearson(xs, xs.map(-1 * _)) + 1.0) < 1e-12)
  }

  test("pearson with a constant side is 0") {
    assert(Stats.pearson(Seq(1.0, 1.0, 1.0), Seq(1.0, 2.0, 3.0)) === 0.0)
  }

  test("normalCdf at 0 is 0.5 and is monotone") {
    assert(math.abs(Stats.normalCdf(0.0) - 0.5) < 1e-7)
    assert(Stats.normalCdf(1.96) > 0.974 && Stats.normalCdf(1.96) < 0.976)
    assert(Stats.normalCdf(-1.0) < Stats.normalCdf(1.0))
  }
}
