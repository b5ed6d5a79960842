package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.{Cnn, Lstm}

class NeuralFeaturesSpec extends AnyFunSuite {
  private val cfg = NeuralFeatures.Config(
    lstmEpochs = 10, lstmHidden = 4, cnnEpochs = 8, cnnFilters = 2)

  test("feature names enumerate labels and event kinds") {
    assert(NeuralFeatures.seqNames === Vector("seq_P", "seq_R", "seq_Res", "seq_Cal"))
    assert(NeuralFeatures.spaNames.size === 16)
    assert(NeuralFeatures.spaNames.head === "spa_move_P")
  }

  test("trained LSTMs separate label-coupled sequences") {
    val rnd = new java.util.Random(3)
    // Label 0 <=> high-confidence sequences; others are noise.
    val data = (0L until 40L).map { id =>
      val y = id % 2 == 0
      val seq = IndexedSeq.fill(12)(Array(
        (if (y) 0.8 else 0.3) + rnd.nextGaussian() * 0.05, rnd.nextDouble(), 0.0))
      id -> seq
    }.toMap
    val labels = data.keys.map(id =>
      id -> Array(id % 2 == 0, rnd.nextBoolean(), rnd.nextBoolean(), rnd.nextBoolean())).toMap
    val lstms = NeuralFeatures.trainLstms(data, labels, data.keys.toSeq.sorted, cfg, seed = 1)
    assert(lstms.length === Labels.Count)
    val posMean = data.keys.filter(_ % 2 == 0).map(id =>
      NeuralFeatures.seqVector(lstms, data(id))(0)).sum / 20
    val negMean = data.keys.filter(_ % 2 == 1).map(id =>
      NeuralFeatures.seqVector(lstms, data(id))(0)).sum / 20
    assert(posMean > negMean, s"$posMean vs $negMean")
  }

  test("seqVector on an empty sequence is a neutral 0.5") {
    val data = Map(1L -> IndexedSeq(Array(0.5, 0.5, 0.5)))
    val labels = Map(1L -> Array(true, false, true, false),
      2L -> Array(false, true, false, true))
    val lstms = NeuralFeatures.trainLstms(
      data + (2L -> IndexedSeq(Array(0.1, 0.1, 0.1))), labels, Seq(1L, 2L),
      NeuralFeatures.Config(lstmEpochs = 1, lstmHidden = 2), seed = 2)
    assert(NeuralFeatures.seqVector(lstms, IndexedSeq.empty).toSeq ===
      Seq.fill(Labels.Count)(0.5))
  }

  test("trained CNNs produce per-kind, per-label coefficients") {
    val rnd = new java.util.Random(5)
    def grid(hot: Boolean): Array[Array[Double]] = {
      val g = Array.ofDim[Double](HeatMap.GridH, HeatMap.GridW)
      val c0 = if (hot) 5 else 28
      for (_ <- 0 until 30)
        g(rnd.nextInt(HeatMap.GridH))(math.max(0, math.min(HeatMap.GridW - 1,
          c0 + rnd.nextInt(5)))) = 1.0
      g
    }
    val ids = (0L until 24L).toVector
    val maps = ids.flatMap { id =>
      MouseKinds.All.map(k => (id, k) -> grid(id % 2 == 0))
    }.toMap
    val labels = ids.map(id => id -> Array.fill(Labels.Count)(id % 2 == 0)).toMap
    val cnns = NeuralFeatures.trainCnns(maps, labels, ids, cfg, seed = 3)
    assert(cnns.size === 16)
    val v = NeuralFeatures.spaVector(cnns, maps, 0L)
    assert(v.length === 16)
    assert(v.forall(p => p >= 0.0 && p <= 1.0))
    val posMean = ids.filter(_ % 2 == 0).map(id =>
      NeuralFeatures.spaVector(cnns, maps, id)(0)).sum / 12
    val negMean = ids.filter(_ % 2 == 1).map(id =>
      NeuralFeatures.spaVector(cnns, maps, id)(0)).sum / 12
    assert(posMean > negMean)
  }

  test("spaVector falls back to a zero grid for missing maps") {
    val ids = Vector(1L, 2L)
    val maps = ids.flatMap { id =>
      MouseKinds.All.map(k => (id, k) ->
        Array.fill(HeatMap.GridH)(Array.fill(HeatMap.GridW)(if (id == 1L) 1.0 else 0.0)))
    }.toMap
    val labels = ids.map(id => id -> Array.fill(Labels.Count)(id == 1L)).toMap
    val cnns = NeuralFeatures.trainCnns(maps, labels, ids,
      NeuralFeatures.Config(cnnEpochs = 1, cnnFilters = 2), seed = 4)
    val v = NeuralFeatures.spaVector(cnns, Map.empty, 99L)
    assert(v.length === 16)
    v.foreach(p => assert(p >= 0.0 && p <= 1.0))
  }

  private def bits(xs: Array[Double]): Vector[Long] =
    xs.toVector.map(java.lang.Double.doubleToRawLongBits)

  test("trainLstms equals the four nets trained one by one, bit for bit") {
    val rnd = new java.util.Random(6)
    val ids = (0L until 16L).toVector
    val seqs = ids.map(id => id -> IndexedSeq.fill(5 + id.toInt % 4)(
      Array.fill(SeqFeatures.FeatureDim)(rnd.nextDouble()))).toMap
    val labels = ids.map(id => id -> Array.fill(Labels.Count)(rnd.nextBoolean())).toMap
    val seed = 9L
    val lstms = NeuralFeatures.trainLstms(seqs, labels, ids, cfg, seed)
    for (l <- 0 until Labels.Count) {
      val net = new Lstm(SeqFeatures.FeatureDim, cfg.lstmHidden, seed = seed + l)
      net.fit(ids.map(id => (seqs(id), labels(id)(l))), epochs = cfg.lstmEpochs,
        seed = seed * 31 + l)
      assert(bits(lstms(l).params) === bits(net.params), s"label $l")
    }
  }

  test("trainCnns equals the 16 nets trained one by one, bit for bit") {
    val rnd = new java.util.Random(7)
    val ids = (0L until 10L).toVector
    val maps = ids.flatMap { id =>
      MouseKinds.All.map(k => (id, k) -> Array.fill(HeatMap.GridH)(
        Array.fill(HeatMap.GridW)(rnd.nextDouble())))
    }.toMap
    val labels = ids.map(id => id -> Array.fill(Labels.Count)(rnd.nextBoolean())).toMap
    val seed = 11L
    val cnns = NeuralFeatures.trainCnns(maps, labels, ids, cfg, seed)
    for (kind <- MouseKinds.All; l <- 0 until Labels.Count) {
      val net = new Cnn(HeatMap.GridH, HeatMap.GridW, cfg.cnnFilters,
        seed = seed + kind.hashCode + l)
      net.fit(ids.map(id => (maps((id, kind)), labels(id)(l))), epochs = cfg.cnnEpochs,
        seed = seed * 37 + l)
      assert(bits(cnns((kind, l)).params) === bits(net.params), s"$kind label $l")
    }
  }
}
