package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class AdamSpec extends AnyFunSuite {

  test("Adam minimizes a quadratic bowl") {
    val w = Array(5.0, -3.0)
    val adam = new Adam(2, lr = 0.1)
    for (_ <- 0 until 500) adam.step(w, Array(2.0 * w(0), 2.0 * w(1)))
    assert(math.abs(w(0)) < 1e-2 && math.abs(w(1)) < 1e-2)
  }

  test("Adam step size is bounded by the learning rate early on") {
    val w = Array(0.0)
    val adam = new Adam(1, lr = 0.001)
    adam.step(w, Array(1000.0))
    // Bias-corrected Adam moves ~lr on the first step regardless of scale.
    assert(math.abs(w(0)) < 0.0011)
  }

  test("Adam rejects mismatched dimensions") {
    val adam = new Adam(2, lr = 0.01)
    intercept[IllegalArgumentException](adam.step(Array(1.0), Array(1.0)))
  }
}
