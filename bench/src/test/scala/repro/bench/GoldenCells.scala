package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import com.fasterxml.jackson.databind.node.ObjectNode
import repro.core.{Experiments, FeatureTable, Labels}
import scala.jdk.CollectionConverters._

/** The golden-cell gate: every cell the bench prints for Tables IIa, IIb,
  * III and IV and Figs. 10-11, kept in `BENCH_mexi.json` at the repository
  * root. Accuracies and qualities are stored at full precision, so a cell
  * that moves in any bit fails its table's gate test.
  *
  * Each check also records its table in `target/BENCH_mexi.actual.json`,
  * which starts as a copy of the committed file, so after a bench run it
  * holds every measured cell. A change that moves cells on purpose copies
  * that file over `BENCH_mexi.json` and explains each moved cell.
  */
object GoldenCells {

  private val mapper = new ObjectMapper()

  /** The directory holding `build.sbt` and `bench/`, whether the tests run
    * from the root or from `bench/`.
    */
  private lazy val root: File =
    Iterator.iterate(new File(".").getCanonicalFile)(_.getParentFile)
      .takeWhile(_ != null)
      .find(d => new File(d, "build.sbt").isFile && new File(d, "bench").isDirectory)
      .getOrElse(sys.error("no repository root above the working directory"))

  private lazy val committedFile = new File(root, "BENCH_mexi.json")
  private lazy val actualFile = new File(root, "target/BENCH_mexi.actual.json")

  private lazy val committed: ObjectNode =
    if (committedFile.isFile) mapper.readTree(committedFile).asInstanceOf[ObjectNode]
    else mapper.createObjectNode()

  private lazy val actual: ObjectNode = committed.deepCopy()

  /** Records table `name`'s cells in the actual file; `None` when they
    * equal the committed ones, else the failure message.
    */
  def check(name: String, cells: ObjectNode): Option[String] = synchronized {
    actual.set[JsonNode](name, cells)
    actualFile.getParentFile.mkdirs()
    Files.write(actualFile.toPath, render(actual).getBytes(UTF_8))
    val want = Option(committed.get(name))
    if (want.contains(cells)) None
    else Some(s"$name cells differ from $committedFile; the measured cells are in " +
      s"$actualFile\nexpected ${want.fold("nothing")(render)}\nactual   ${render(cells)}")
  }

  /** One row object per line, so a moved cell shows as a one-line diff. */
  private def render(node: JsonNode): String = {
    def obj(n: JsonNode, indent: String)(value: JsonNode => String): String =
      n.fieldNames.asScala
        .map(k => s"$indent  ${mapper.writeValueAsString(k)}: ${value(n.get(k))}")
        .mkString("{\n", ",\n", s"\n$indent}")
    if (node.isObject && node.elements.asScala.forall(_.isObject))
      obj(node, "")(table => obj(table, "  ")(mapper.writeValueAsString)) + "\n"
    else mapper.writeValueAsString(node)
  }

  /** Accuracy table: method -> {A_P, A_R, A_Res, A_Cal, A_ML}. */
  def accuracyCells(rows: Vector[Experiments.TableRow]): ObjectNode = {
    val t = mapper.createObjectNode()
    rows.foreach { r =>
      val row = t.putObject(r.method)
      Seq("A_P", "A_R", "A_Res", "A_Cal", "A_ML").zip(r.acc.toSeq)
        .foreach { case (k, v) => row.put(k, v) }
    }
    t
  }

  /** Utilization table: selector -> {n, P, R, Res, |Cal|, fusedP, fusedR}. */
  def utilizationCells(rows: Vector[Experiments.UtilizationRow]): ObjectNode = {
    val t = mapper.createObjectNode()
    rows.foreach { r =>
      val row = t.putObject(r.method)
      row.put("n", r.n)
      Seq("P" -> r.p, "R" -> r.r, "Res" -> r.res, "|Cal|" -> r.absCal,
        "fusedP" -> r.fusedP, "fusedR" -> r.fusedR).foreach { case (k, v) => row.put(k, v) }
    }
    t
  }

  /** Table IV: set -> {E_P, E_R, E_Res, E_Cal} -> top features in order. */
  def importanceCells(top: Map[(String, String), Seq[String]]): ObjectNode = {
    val t = mapper.createObjectNode()
    FeatureTable.Groups.foreach { s =>
      val row = t.putObject(s)
      Labels.Names.foreach { l =>
        val feats = row.putArray(s"E_$l")
        top((s, l)).foreach(feats.add)
      }
    }
    t
  }
}
