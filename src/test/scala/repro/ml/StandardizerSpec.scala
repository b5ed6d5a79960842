package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class StandardizerSpec extends AnyFunSuite {
  private val data = Seq(Array(1.0, 5.0), Array(3.0, 5.0), Array(5.0, 5.0))

  test("transformed training data has zero mean") {
    val std = Standardizer.fit(data)
    val z = data.map(std.transform)
    val mean0 = z.map(_(0)).sum / z.size
    assert(math.abs(mean0) < 1e-12)
  }

  test("transformed training data has unit (population) variance") {
    val std = Standardizer.fit(data)
    val z = data.map(std.transform)
    val v = z.map(x => x(0) * x(0)).sum / z.size
    assert(math.abs(v - 1.0) < 1e-12)
  }

  test("constant columns map to zero, not NaN") {
    val std = Standardizer.fit(data)
    data.map(std.transform).foreach(x => assert(x(1) === 0.0))
  }

  test("transform applies train statistics to new points") {
    val std = Standardizer.fit(data)
    val z = std.transform(Array(7.0, 5.0))
    // mean 3, population std sqrt(8/3)
    assert(math.abs(z(0) - (7.0 - 3.0) / math.sqrt(8.0 / 3.0)) < 1e-12)
  }

  test("dimension mismatch is rejected") {
    val std = Standardizer.fit(data)
    intercept[IllegalArgumentException](std.transform(Array(1.0)))
  }
}
