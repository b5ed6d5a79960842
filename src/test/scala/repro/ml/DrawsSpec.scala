package repro.ml

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The loop draw equals the stream it replaces, and leaves the generator
  * in the same state.
  */
class DrawsSpec extends AnyFunSuite {

  /** Small bounds as the callers use them, powers of two, and bounds just
    * above 2^30, where the bounded draw rejects about half its values.
    */
  private val genBound: Gen[Int] = Gen.frequency(
    4 -> Gen.choose(1, 120),
    2 -> Gen.choose(0, 12).map(1 << _),
    1 -> Gen.choose((1 << 30) + 1, Int.MaxValue))

  private val genCase: Gen[(Long, Int, Int)] = for {
    seed <- Gen.long
    bound <- genBound
    k <- Gen.choose(0, math.min(bound, 150))
  } yield (seed, bound, k)

  test("distinctInts equals ints(0, bound).distinct().limit(k) and the next draw") {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(2000)
      .withInitialSeed(Seed(20212L))
    val res = Test.check(params, Prop.forAll(genCase) { case (seed, bound, k) =>
      val a = new java.util.Random(seed)
      val b = new java.util.Random(seed)
      val got = Draws.distinctInts(a, bound, k).toSeq
      val want = b.ints(0, bound).distinct().limit(k.toLong).toArray.toSeq
      Prop(got == want && a.nextLong() == b.nextLong()) :| s"got $got\nwant $want"
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("more distinct values than the bound holds are rejected") {
    intercept[IllegalArgumentException](Draws.distinctInts(new java.util.Random(1L), 3, 4))
  }
}
