package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ParSpec extends AnyFunSuite {

  test("output order equals input order") {
    val xs = (0 until 64).toVector
    // Later inputs finish first, so completion order is not input order.
    val out = Par.map(xs) { i => Thread.sleep((64 - i) % 5); i * i }
    assert(out === xs.map(i => i * i))
    assert(Par.map(Vector.empty[Int])(_ + 1) === Vector.empty)
    assert(Par.map(Seq(3))(_ + 1) === Vector(4))
  }

  test("an exception thrown by a task reaches the caller with its type") {
    val e = intercept[IllegalStateException] {
      Par.map(1 to 16) { i => if (i == 11) throw new IllegalStateException("task 11") else i }
    }
    assert(e.getMessage.contains("task 11"))
  }

  test("nested calls complete") {
    val out = Par.map(0 until 8) { i =>
      Par.map(0 until 8) { j => Par.map(0 until 4)(k => i * 100 + j * 10 + k).sum }.sum
    }
    val expected = (0 until 8).map { i =>
      (0 until 8).map(j => (0 until 4).map(k => i * 100 + j * 10 + k).sum).sum
    }
    assert(out === expected)
  }
}
