package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class MouseColumnsSpec extends AnyFunSuite {

  test("stableOrder equals a stable sortBy, ties and runs included") {
    // Keys from a small pool give long ties; ascending prefixes give runs.
    val genKeys = for {
      n <- Gen.choose(0, 200)
      pool <- Gen.choose(1, 12)
      keys <- Gen.listOfN(n, Gen.choose(0, pool))
      sortedPrefix <- Gen.choose(0, n)
    } yield (keys.take(sortedPrefix).sorted ++ keys.drop(sortedPrefix)).toArray
    val params = Test.Parameters.default
      .withMinSuccessfulTests(500)
      .withInitialSeed(Seed(20261019L))
    val res = Test.check(params, Prop.forAll(genKeys) { keys =>
      MouseColumns.stableOrder(keys.length)((a, b) => Integer.compare(keys(a), keys(b))).toSeq ==
        keys.indices.sortBy(keys(_))
    })
    assert(res.passed, Pretty.pretty(res))
  }

  test("fromEvents keeps each matcher's order and rejects an unknown kind") {
    val es = Vector(
      MouseEvent(2L, 1.0, 2.0, MouseKinds.Left, 5.0),
      MouseEvent(1L, 3.0, 4.0, MouseKinds.Move, 1.0),
      MouseEvent(2L, 5.0, 6.0, MouseKinds.Scroll, 0.5))
    val stream = MouseStream.fromEvents(es)
    assert(stream.byMatcher.keys.toSeq === Seq(2L, 1L))
    assert(stream.size === 3)
    assert(stream.events.toVector === es.sortBy(_.matcherId)(Ordering.Long.reverse))
    val e = intercept[IllegalArgumentException](
      MouseStream.fromEvents(es :+ MouseEvent(1L, 0.0, 0.0, "drag", 2.0)))
    assert(e.getMessage === "matcher 1: unknown mouse event kind 'drag'")
  }

  test("upTo keeps the events at or before the cutoff, in recorded order; empty entries drop") {
    val c = TestMouse.columns(Vector(3.0, 1.0, 2.0, 4.0).map(ts =>
      MouseEvent(0L, ts, ts, MouseKinds.Move, ts)))
    assert(c.upTo(2.0).ts.toSeq === Seq(1.0, 2.0))
    assert(c.upTo(4.0) eq c)
    assert(c.upTo(0.5).size === 0)
    // A matcher left without events has no entry in the stream.
    val s = MouseStream.of(Seq(1L -> c.upTo(0.5), 2L -> c))
    assert(s.byMatcher.keys.toSeq === Seq(2L) && s.size === 4)
  }
}
