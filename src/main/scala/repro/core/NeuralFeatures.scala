package repro.core

import repro.nn.{Cnn, Lstm}

/** Late-fusion neural feature stage (Section III-B): per-label LSTMs over
  * decision sequences and per-(event type, label) CNNs over heat maps are
  * trained on the training population; their output probabilities ("label
  * coefficients") become the Phi_Seq and Phi_Spa features of every matcher.
  */
object NeuralFeatures {

  final case class Config(
      lstmEpochs: Int = 12,
      lstmHidden: Int = 16,
      cnnEpochs: Int = 10,
      cnnFilters: Int = 3,
  )

  val seqNames: Vector[String] = Labels.Names.map(n => s"seq_$n")
  val spaNames: Vector[String] =
    MouseKinds.All.flatMap(k => Labels.Names.map(n => s"spa_${k}_$n")).toVector

  /** One training set of the per-label LSTMs: the entity ids in training
    * order, and the sequence and labels of each of them.
    */
  final case class LstmSet(ids: Seq[Long],
                           seqs: Map[Long, IndexedSeq[Array[Double]]],
                           labels: Map[Long, Array[Boolean]])

  /** One LSTM per expertise label for each training set, trained on the
    * set's sequences (sub-matchers included, per the paper's
    * augmentation). All the nets train in one [[Par.map]], each from its
    * own seeds, and the first set's four start first: put the set with the
    * most sequences first, because its fits are the longest.
    */
  def trainLstms(sets: Seq[LstmSet], cfg: Config, seed: Long): Vector[Array[Lstm]] = {
    val jobs = for (set <- sets.toVector; l <- 0 until Labels.Count) yield (set, l)
    Par.map(jobs) { case (set, l) =>
      val net = new Lstm(SeqFeatures.FeatureDim, cfg.lstmHidden, seed = seed + l)
      val data = set.ids.flatMap { id =>
        set.seqs.get(id).filter(_.nonEmpty).map(s => (s, set.labels(id)(l)))
      }
      require(data.nonEmpty, "no LSTM training sequences")
      net.fit(data, epochs = cfg.lstmEpochs, seed = seed * 31 + l)
      net
    }.grouped(Labels.Count).map(_.toArray).toVector
  }

  /** One CNN per (mouse event type, label), trained on the training
    * matchers' heat maps (full matchers only — a sub-matcher's map is a
    * near-duplicate of its parent's; see DESIGN.md). The 16 nets train
    * concurrently, each from its own seeds.
    */
  def trainCnns(maps: Map[(Long, String), Array[Array[Double]]],
                labels: Map[Long, Array[Boolean]],
                trainIds: Seq[Long], cfg: Config, seed: Long): Map[(String, Int), Cnn] = {
    val keys = for (kind <- MouseKinds.All; l <- 0 until Labels.Count) yield (kind, l)
    Par.map(keys) { case (kind, l) =>
      val net = new Cnn(HeatMap.GridH, HeatMap.GridW, cfg.cnnFilters,
        seed = seed + kind.hashCode + l)
      val data = trainIds.map(id => (HeatMap.gridOf(maps, id, kind), labels(id)(l)))
      net.fit(data, epochs = cfg.cnnEpochs, seed = seed * 37 + l)
      (kind, l) -> net
    }.toMap
  }

  /** Phi_Seq(H) for one entity: the four per-label LSTM coefficients. */
  def seqVector(lstms: Array[Lstm], seq: IndexedSeq[Array[Double]]): Array[Double] =
    if (seq.isEmpty) Array.fill(Labels.Count)(0.5)
    else lstms.map(_.predict(seq))

  /** Phi_Spa(G) for one entity: the 16 per-(type, label) CNN coefficients. */
  def spaVector(cnns: Map[(String, Int), Cnn],
                maps: Map[(Long, String), Array[Array[Double]]], id: Long): Array[Double] =
    MouseKinds.All.flatMap { kind =>
      val grid = HeatMap.gridOf(maps, id, kind)
      (0 until Labels.Count).map(l => cnns((kind, l)).predict(grid))
    }.toArray
}
