package repro.ml

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The per-rank split search grows the same trees as a per-node sort of
  * the boxed values, node for node and bit for bit.
  */
class DecisionTreeSpec extends AnyFunSuite {
  import DecisionTreeSpec._

  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20211L))
    val res = Test.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("DecisionTree grows the per-node-sort tree bit for bit") {
    check(Prop.forAll(genCase) { c =>
      val got = grown(c)
      val want = BoxedSortTree(MaxDepth, MinLeaf, Some(c.k)).train(c.xs, c.ys, c.seed)
      Prop(sameNode(got, want)) :| s"got $got\nwant $want"
    })
  }

  test("columns whose rows all hold one value give the per-node-sort leaf") {
    check(Prop.forAll(genConstantCase) { c =>
      val got = grown(c)
      val want = BoxedSortTree(MaxDepth, MinLeaf, Some(c.k)).train(c.xs, c.ys, c.seed)
      Prop(got.isInstanceOf[Leaf] && sameNode(got, want)) :| s"got $got\nwant $want"
    })
  }

  test("RandomForest grows the per-node-sort trees bit for bit") {
    check(Prop.forAll(genCase) { c =>
      val got = RandomForest.train(c.xs, c.ys, c.seed)
      val want = BoxedSortTree.forest(Trees, MaxDepth, MinLeaf, c.xs, c.ys, c.seed)
      val same = (got, want) match {
        case (ForestModel(ts), Right(ws)) =>
          ts.length == ws.length && ts.zip(ws).forall {
            case (TreeModel(t), w) => sameNode(t, w)
            case _                 => false
          }
        case (ConstantModel(p), Left(q)) => bits(p) == bits(q)
        case _                           => false
      }
      Prop(same) :| s"got $got\nwant $want"
    })
  }

  test("ForestModel.proba equals the mean of its trees' probabilities bit for bit") {
    val probs = Gen.oneOf(0.0, -0.0, 0.1, 1.0 / 3, 0.7, 1.0)
    val forests = Gen.frequency(3 -> Gen.choose(0, 4), 1 -> Gen.choose(5, 60))
      .flatMap(Gen.listOfN(_, probs))
    check(Prop.forAll(forests, Gen.choose(-1.0, 1.0)) { (ps, v) =>
      val trees = ps.toVector.map(p => TreeModel(Split(0, 0.0, Leaf(p), Leaf(1.0 - p))))
      val x = Array(v)
      val want = trees.map(_.proba(x)).sum / trees.length
      Prop(bits(ForestModel(trees).proba(x)) == bits(want))
    })
  }
}

object DecisionTreeSpec {

  /** The forest's size and its trees' depth and leaf bounds. */
  private val Trees = 60
  private val MaxDepth = 6
  private val MinLeaf = 2

  /** A tree grown on all of `c`'s rows, `c.k` features drawn per split. */
  private def grown(c: Case): TreeNode =
    DecisionTree.grow(DecisionTree.Columns(c.xs), c.ys.toArray, c.xs.indices.toArray, c.k,
      c.seed).root

  final case class Case(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean], k: Int,
                        seed: Long) {
    override def toString: String =
      s"Case(xs=${xs.map(_.mkString("[", ",", "]")).mkString(" ")}, ys=$ys, k=$k, seed=$seed)"
  }

  /** Few distinct values, both zeros and NaN among them, so rows tie
    * often. NaN sorts last and shares the top rank, and `vHi > vLo` is
    * false on either side of it.
    */
  private val tiedValues = Gen.oneOf(-1.5, -0.0, 0.0, 0.25, 1.0, 2.0, Double.NaN)

  private def genColumn(n: Int): Gen[Array[Double]] = Gen.frequency(
    1 -> tiedValues.map(Array.fill(n)(_)), // constant column
    3 -> Gen.listOfN(n, tiedValues).map(_.toArray),
    1 -> Gen.listOfN(n, Gen.choose(-3.0, 3.0)).map(_.toArray),
  )

  /** `n` rows drawn with repetition from a pool of distinct rows, as a
    * bootstrap sample is.
    */
  val genCase: Gen[Case] = for {
    n <- Gen.choose(1, 60)
    d <- Gen.choose(1, 6)
    poolSize <- Gen.choose(1, n)
    cols <- Gen.listOfN(d, genColumn(poolSize))
    poolYs <- Gen.listOfN(poolSize, Gen.oneOf(true, false))
    pick <- Gen.listOfN(n, Gen.choose(0, poolSize - 1))
    k <- Gen.choose(1, d)
    seed <- Gen.long
  } yield Case(
    pick.toIndexedSeq.map(i => Array.tabulate(d)(f => cols(f)(i))),
    pick.toIndexedSeq.map(poolYs),
    k, seed)

  /** A case whose every column holds one value in all its rows. */
  val genConstantCase: Gen[Case] = for {
    c <- genCase
    vs <- Gen.listOfN(c.xs.head.length, tiedValues)
  } yield c.copy(xs = c.xs.map(_ => vs.toArray))

  def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  def sameNode(a: TreeNode, b: TreeNode): Boolean = (a, b) match {
    case (Leaf(p), Leaf(q)) => bits(p) == bits(q)
    case (Split(f, t, l, r), Split(g, u, l2, r2)) =>
      f == g && bits(t) == bits(u) && sameNode(l, l2) && sameNode(r, r2)
    case _ => false
  }

  /** The split search as it was before the rank view: rows copied per tree,
    * and a boxed `sortBy` per candidate feature at every node.
    */
  final case class BoxedSortTree(maxDepth: Int, minLeaf: Int, featureSubset: Option[Int]) {
    def train(xs: Seq[Array[Double]], ys: Seq[Boolean], seed: Long): TreeNode = {
      val rnd = new java.util.Random(seed)
      grow(xs.toIndexedSeq, ys.toIndexedSeq, xs.indices.toArray, 0, rnd)
    }

    private def gini(pos: Int, n: Int): Double = {
      if (n == 0) return 0.0
      val p = pos.toDouble / n
      2.0 * p * (1.0 - p)
    }

    private def grow(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Boolean],
                     idx: Array[Int], depth: Int, rnd: java.util.Random): TreeNode = {
      val pos = idx.count(ys)
      val prob = pos.toDouble / idx.length
      if (depth >= maxDepth || idx.length < 2 * minLeaf || pos == 0 || pos == idx.length)
        return Leaf(prob)

      val d = xs.head.length
      val feats: Seq[Int] = featureSubset match {
        case Some(k) =>
          val all = rnd.ints(0, d).distinct().limit(math.min(k, d).toLong).toArray
          all.toIndexedSeq
        case None => 0 until d
      }

      var bestGain = 1e-12
      var bestFeat = -1
      var bestThr = 0.0
      val parentImp = gini(pos, idx.length)
      for (f <- feats) {
        val sorted = idx.sortBy(xs(_)(f))
        var leftPos = 0
        for (k <- 0 until sorted.length - 1) {
          if (ys(sorted(k))) leftPos += 1
          val vLo = xs(sorted(k))(f); val vHi = xs(sorted(k + 1))(f)
          if (vHi > vLo && k + 1 >= minLeaf && sorted.length - k - 1 >= minLeaf) {
            val nL = k + 1; val nR = sorted.length - nL
            val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / sorted.length
            val gain = parentImp - imp
            if (gain > bestGain) {
              bestGain = gain; bestFeat = f; bestThr = (vLo + vHi) / 2.0
            }
          }
        }
      }
      if (bestFeat < 0) return Leaf(prob)
      val (l, r) = idx.partition(xs(_)(bestFeat) <= bestThr)
      if (l.isEmpty || r.isEmpty) return Leaf(prob)
      Split(bestFeat, bestThr, grow(xs, ys, l, depth + 1, rnd), grow(xs, ys, r, depth + 1, rnd))
    }
  }

  object BoxedSortTree {
    /** The forest as it was: `Left` is the single-class constant. */
    def forest(nTrees: Int, maxDepth: Int, minLeaf: Int, xs: Seq[Array[Double]],
               ys: Seq[Boolean], seed: Long): Either[Double, Vector[TreeNode]] = {
      if (ys.forall(identity) || !ys.exists(identity))
        return Left(ys.count(identity).toDouble / ys.length)
      val xi = xs.toIndexedSeq; val yi = ys.toIndexedSeq
      val d = xs.head.length
      val k = math.max(1, math.round(math.sqrt(d.toDouble)).toInt)
      val rnd = new java.util.Random(seed)
      Right((0 until nTrees).map { _ =>
        val bootRnd = new java.util.Random(rnd.nextLong())
        val idx = Array.fill(xi.length)(bootRnd.nextInt(xi.length))
        val bx = idx.toIndexedSeq.map(xi)
        val by = idx.toIndexedSeq.map(yi)
        BoxedSortTree(maxDepth, minLeaf, Some(k)).train(bx, by, bootRnd.nextLong())
      }.toVector)
    }
  }
}
