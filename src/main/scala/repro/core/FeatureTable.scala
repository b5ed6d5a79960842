package repro.core

/** A named feature matrix over entities (matchers or sub-matchers).
  *
  * Feature names carry their set as a prefix ("lrsm_", "beh_", "mou_",
  * "seq_", "spa_") so the ablation study (Table III) can include/exclude
  * whole sets by masking columns.
  */
final case class FeatureTable(names: Vector[String], rows: Map[Long, Array[Double]]) {
  require(rows.values.forall(_.length == names.length), "ragged feature table")

  def vector(id: Long): Array[Double] = rows(id)

  /** Keep only the feature sets in `groups` (by name prefix). */
  def select(groups: Set[String]): FeatureTable = {
    val keep = names.filter(n => groups.contains(groupOf(n)))
    require(keep.nonEmpty, s"no features left after selecting $groups")
    columns(keep)
  }

  /** Keep only the columns named in `keep`, in that order. */
  def columns(keep: Vector[String]): FeatureTable = {
    val idx = keep.map { n =>
      val i = names.indexOf(n)
      require(i >= 0, s"no feature column $n")
      i
    }
    FeatureTable(keep, rows.view.mapValues(r => idx.map(r).toArray).toMap)
  }

  private def groupOf(name: String): String = name.takeWhile(_ != '_')
}

object FeatureTable {
  val AllGroups: Set[String] = Set("lrsm", "beh", "mou", "seq", "spa")
}
