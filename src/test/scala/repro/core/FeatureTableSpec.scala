package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FeatureTableSpec extends AnyFunSuite {
  private val t = FeatureTable(
    Vector("lrsm_a", "beh_b", "mou_c", "seq_P", "spa_move_P"),
    Map(1L -> Array(1.0, 2.0, 3.0, 4.0, 5.0), 2L -> Array(6.0, 7.0, 8.0, 9.0, 10.0)))

  test("select keeps only the requested groups, preserving order") {
    val s = t.select(Set("lrsm", "seq"))
    assert(s.names === Vector("lrsm_a", "seq_P"))
    assert(s.vector(1L).toSeq === Seq(1.0, 4.0))
    assert(s.vector(2L).toSeq === Seq(6.0, 9.0))
  }

  test("select all groups is identity") {
    val s = t.select(FeatureTable.AllGroups)
    assert(s.names === t.names)
    assert(s.vector(1L).toSeq === t.vector(1L).toSeq)
  }

  test("selecting an unknown group fails fast") {
    intercept[IllegalArgumentException](t.select(Set("nope")))
  }

  test("columns keeps the named columns in the given order") {
    val s = t.columns(Vector("seq_P", "lrsm_a"))
    assert(s.names === Vector("seq_P", "lrsm_a"))
    assert(s.vector(2L).toSeq === Seq(9.0, 6.0))
  }

  test("an unknown column fails fast") {
    intercept[IllegalArgumentException](t.columns(Vector("lrsm_a", "nope")))
  }

  test("ragged rows are rejected") {
    intercept[IllegalArgumentException](
      FeatureTable(Vector("a_1", "a_2"), Map(1L -> Array(1.0))))
  }
}
