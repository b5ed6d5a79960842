package repro.core

import java.util.concurrent.{CountDownLatch, CyclicBarrier, TimeUnit}
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

  test("a nested call runs one job per available processor at once") {
    // Each job waits until all of them have started, so the call completes
    // only if that many jobs run at the same time. The nested call runs in
    // a pool worker: job 0 of the outer call returns only once job 1 has
    // started elsewhere.
    val n = Runtime.getRuntime.availableProcessors
    val barrier = new CyclicBarrier(n)
    val started = new CountDownLatch(1)
    val out = Par.map(0 until 2) {
      case 0 => started.await(10, TimeUnit.SECONDS); Vector.empty[Int]
      case _ =>
        started.countDown()
        Par.map(0 until n) { j => barrier.await(10, TimeUnit.SECONDS); j }
    }
    assert(out(1) === (0 until n))
  }
}
