package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/colfmt"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/sentiment"
	"repro/internal/word2vec"
)

// Columnar snapshot layout (colfmt container, KindSnapshot). Blocks in
// write order; readers skip unknown names. A load decodes the blocks
// scoring reads and checks the deferred ones in full without decoding
// them; those are decoded on first read (readSnapshotColumnar):
//
//	meta        snapshot version, classifier kind (always "xgboost"),
//	            detector config, presence flags
//	arena       shared string bytes every string column points into
//	vocab       segmenter dictionary            (string col)
//	lexicon     positive + negative lexicons    (2 string cols)
//	sentiment   priors/OOV + per-class word and loglik columns, words
//	            sorted, each once
//	w2v         dim, counts, embeddings, words  (when flagged; deferred)
//	gbt         config, base score, split counts, names, node columns
//	trainsample drift-baseline feature matrix   (when flagged; deferred)
//
// The writer is byte-stable: the same snapshot always encodes to the
// same bytes (sentiment words in sorted order, a block present exactly
// when its flag is set), so content-hash model versions stay
// meaningful.

// Presence flag bits in the meta block.
const (
	snapFlagEmbedding   = 1 << 0
	snapFlagTrainSample = 1 << 1
)

// metaModelKind fills the meta block's positional classifier-kind
// slot, kept so files written before the detector had one model type
// still load without a version bump. Nothing else was ever writable.
const metaModelKind = "xgboost"

// WriteSnapshotColumnar encodes a detector snapshot in the columnar
// binary format. JSON (WriteSnapshot) remains the import/export codec;
// this is the fast native one.
func WriteSnapshotColumnar(w io.Writer, s *DetectorSnapshot) error {
	if s == nil || s.Analyzer == nil || s.Analyzer.Sentiment == nil || s.GBT == nil {
		return fmt.Errorf("core: encode columnar snapshot: incomplete snapshot")
	}
	s = s.resolved()
	cw, err := colfmt.NewWriter(w, colfmt.KindSnapshot)
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}

	var arena colfmt.Arena
	var meta, vocab, lexicon, sent, w2v, gbtBlk, train colfmt.Enc

	meta.Uvarint(uint64(s.Version))
	meta.Str(metaModelKind)
	meta.Varint(int64(s.Config.MinSalesVolume))
	meta.Bool(s.Config.DisableRuleFilter)
	meta.F64(s.Config.Threshold)
	var flags byte
	if s.Analyzer.Embedding != nil {
		flags |= snapFlagEmbedding
	}
	if len(s.TrainingSample) > 0 {
		flags |= snapFlagTrainSample
	}
	meta.Byte(flags)

	vocab.StringCol(&arena, s.Analyzer.Vocabulary)
	lexicon.StringCol(&arena, s.Analyzer.Positive)
	lexicon.StringCol(&arena, s.Analyzer.Negative)
	if err := encodeSentiment(&sent, &arena, s.Analyzer.Sentiment); err != nil {
		return err
	}
	if s.Analyzer.Embedding != nil {
		if err := encodeEmbedding(&w2v, &arena, s.Analyzer.Embedding); err != nil {
			return err
		}
	}
	encodeGBT(&gbtBlk, &arena, s.GBT)
	if len(s.TrainingSample) > 0 {
		encodeMatrix(&train, s.TrainingSample)
	}

	cw.WriteBlock("meta", meta.Bytes())
	cw.WriteBlock("arena", arena.Bytes())
	cw.WriteBlock("vocab", vocab.Bytes())
	cw.WriteBlock("lexicon", lexicon.Bytes())
	cw.WriteBlock("sentiment", sent.Bytes())
	if s.Analyzer.Embedding != nil {
		cw.WriteBlock("w2v", w2v.Bytes())
	}
	cw.WriteBlock("gbt", gbtBlk.Bytes())
	if len(s.TrainingSample) > 0 {
		cw.WriteBlock("trainsample", train.Bytes())
	}
	return cw.Err()
}

func encodeSentiment(e *colfmt.Enc, arena *colfmt.Arena, s *sentiment.Snapshot) error {
	e.F64(s.LogPrior[0])
	e.F64(s.LogPrior[1])
	e.F64(s.LogOOV[0])
	e.F64(s.LogOOV[1])
	for c, l := range s.LogLik {
		if len(l.Words) != len(l.Vals) {
			return fmt.Errorf("core: encode columnar snapshot: sentiment class %d has %d words but %d log-likelihoods", c, len(l.Words), len(l.Vals))
		}
		// Whoever built the snapshot, the block holds each word once in
		// ascending order: what keeps the bytes stable.
		l = l.Sorted()
		e.StringCol(arena, l.Words)
		e.F64Col(l.Vals)
	}
	return nil
}

func encodeEmbedding(e *colfmt.Enc, arena *colfmt.Arena, s *word2vec.Snapshot) error {
	if len(s.Words) != len(s.Vectors) || len(s.Words) != len(s.Counts) {
		return fmt.Errorf("core: encode columnar snapshot: embedding shape mismatch: %d words, %d counts, %d vectors",
			len(s.Words), len(s.Counts), len(s.Vectors))
	}
	e.Varint(int64(s.Dim))
	e.Uvarint(uint64(len(s.Words)))
	e.StringCol(arena, s.Words)
	e.IntsCol(s.Counts)
	for _, v := range s.Vectors {
		if len(v) != s.Dim {
			return fmt.Errorf("core: encode columnar snapshot: embedding vector has dim %d, want %d", len(v), s.Dim)
		}
		for _, x := range v {
			e.F64(x)
		}
	}
	return nil
}

func encodeGBT(e *colfmt.Enc, arena *colfmt.Arena, s *gbt.Snapshot) {
	cfg := s.Config
	e.Varint(int64(cfg.Rounds))
	e.Varint(int64(cfg.MaxDepth))
	e.F64(cfg.LearningRate)
	e.F64(cfg.Lambda)
	e.F64(cfg.Gamma)
	e.F64(cfg.MinChildWeight)
	e.F64(cfg.Subsample)
	e.F64(cfg.ColSample)
	e.Varint(cfg.Seed)
	e.Varint(int64(cfg.Workers))
	e.F64(s.BaseScore)
	e.IntsCol(s.SplitCount)
	e.StringCol(arena, s.Names)

	// Trees flatten to per-field node columns across the whole
	// ensemble; nodecounts recovers the per-tree slicing.
	total := 0
	for _, t := range s.Trees {
		total += len(t)
	}
	counts := make([]int, len(s.Trees))
	features := make([]int, 0, total)
	thresholds := make([]float64, 0, total)
	leaves := make([]byte, 0, total)
	weights := make([]float64, 0, total)
	lefts := make([]int, 0, total)
	rights := make([]int, 0, total)
	for ti, t := range s.Trees {
		counts[ti] = len(t)
		for _, n := range t {
			features = append(features, n.Feature)
			thresholds = append(thresholds, n.Threshold)
			if n.Leaf {
				leaves = append(leaves, 1)
			} else {
				leaves = append(leaves, 0)
			}
			weights = append(weights, n.Weight)
			lefts = append(lefts, n.Left)
			rights = append(rights, n.Right)
		}
	}
	e.IntsCol(counts)
	e.IntsCol(features)
	e.F64Col(thresholds)
	e.ByteCol(leaves)
	e.F64Col(weights)
	e.IntsCol(lefts)
	e.IntsCol(rights)
}

func encodeMatrix(e *colfmt.Enc, rows [][]float64) {
	e.Uvarint(uint64(len(rows)))
	lens := make([]int, len(rows))
	for i, r := range rows {
		lens[i] = len(r)
	}
	e.IntsCol(lens)
	for _, r := range rows {
		for _, v := range r {
			e.F64(v)
		}
	}
}

// readSnapshotColumnar decodes a columnar snapshot positioned at the
// container header. Decode failures carry the format version, block
// name, and byte offset via colfmt.Error.
//
// The w2v and trainsample blocks are read, CRC-checked and walked with
// every check their decode makes, then kept undecoded (deferred): the
// snapshot's Embedding and TrainingSample stay nil and the parts are
// decoded when a writer, the analyzer's Embedding or the detector's
// TrainingSample first reads them. The meta flags say which of the two
// blocks the file holds; a block they deny is an error, as is a missing
// block they promise.
func readSnapshotColumnar(r io.Reader) (*DetectorSnapshot, error) {
	cr, err := colfmt.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if cr.Kind() != colfmt.KindSnapshot {
		return nil, fmt.Errorf("core: decode snapshot: container kind %d is not a model snapshot", cr.Kind())
	}

	s := &DetectorSnapshot{Analyzer: &AnalyzerSnapshot{}}
	var arena string
	var flags byte
	seen := map[string]bool{}
	for {
		name, payload, err := cr.NextArena(&arena)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: decode snapshot: %w", err)
		}
		if seen[name] {
			return nil, fmt.Errorf("core: decode snapshot: duplicate block %q", name)
		}
		seen[name] = true
		if name != "meta" && !seen["meta"] {
			return nil, fmt.Errorf("core: decode snapshot: block %q before meta", name)
		}
		var decode func(d *colfmt.Dec)
		switch name {
		case "meta":
			decode = func(d *colfmt.Dec) {
				s.Version = int(d.Uvarint())
				if kind := d.Str(); kind != metaModelKind {
					d.Failf("classifier kind %q is not %q, the only model a snapshot can hold", kind, metaModelKind)
				}
				s.Config.MinSalesVolume = d.Int()
				s.Config.DisableRuleFilter = d.Bool()
				if s.Config.Threshold = d.F64(); !validThreshold(s.Config.Threshold) {
					d.Failf("config threshold %v is outside [0, 1]", s.Config.Threshold)
				}
				flags = d.Byte()
			}
		case "arena":
			// One string for the whole snapshot, read straight into arena:
			// every string column below returns slices of it.
			continue
		case "vocab":
			decode = func(d *colfmt.Dec) { s.Analyzer.Vocabulary = d.StringCol(arena) }
		case "lexicon":
			decode = func(d *colfmt.Dec) {
				s.Analyzer.Positive = d.StringCol(arena)
				s.Analyzer.Negative = d.StringCol(arena)
			}
		case "sentiment":
			decode = func(d *colfmt.Dec) { s.Analyzer.Sentiment = decodeSentiment(d, arena) }
		case "w2v":
			if flags&snapFlagEmbedding == 0 {
				return nil, fmt.Errorf("core: decode snapshot: block %q present but meta flags no embedding", name)
			}
			decode = func(d *colfmt.Dec) { decodeEmbedding(d, arena, false) }
		case "gbt":
			decode = func(d *colfmt.Dec) { s.GBT = decodeGBT(d, arena) }
		case "trainsample":
			if flags&snapFlagTrainSample == 0 {
				return nil, fmt.Errorf("core: decode snapshot: block %q present but meta flags no training sample", name)
			}
			decode = func(d *colfmt.Dec) { decodeMatrix(d, false) }
		default:
			continue // unknown block: skip for forward compatibility
		}
		if err := cr.Decode(name, payload, decode); err != nil {
			return nil, fmt.Errorf("core: decode snapshot: %w", err)
		}
		switch name {
		case "w2v":
			blk, arena := cr.Keep(name, payload), arena
			s.Analyzer.w2v = deferBlock(blk, func(d *colfmt.Dec) *word2vec.Snapshot { return decodeEmbedding(d, arena, true) })
		case "trainsample":
			s.trainSample = deferBlock(cr.Keep(name, payload), func(d *colfmt.Dec) [][]float64 { return decodeMatrix(d, true) })
		}
	}
	for _, required := range []string{"meta", "arena", "vocab", "lexicon", "sentiment", "gbt"} {
		if !seen[required] {
			return nil, fmt.Errorf("core: decode snapshot: missing block %q", required)
		}
	}
	if flags&snapFlagEmbedding != 0 && !seen["w2v"] {
		return nil, fmt.Errorf("core: decode snapshot: meta promises an embedding but block %q is missing", "w2v")
	}
	if flags&snapFlagTrainSample != 0 && !seen["trainsample"] {
		return nil, fmt.Errorf("core: decode snapshot: meta promises a training sample but block %q is missing", "trainsample")
	}
	return s, nil
}

// deferBlock defers a kept block's decode to its part's first read. The
// load decoded the same bytes with the same checks and accepted them, so
// a failure here is a broken invariant, not bad input.
func deferBlock[T any](blk colfmt.Block, decode func(*colfmt.Dec) T) *deferred[T] {
	return later(func() T {
		var v T
		if err := blk.Decode(func(d *colfmt.Dec) { v = decode(d) }); err != nil {
			panic(fmt.Sprintf("core: a snapshot block the load accepted no longer decodes: %v", err))
		}
		return v
	})
}

func decodeSentiment(d *colfmt.Dec, arena string) *sentiment.Snapshot {
	s := &sentiment.Snapshot{}
	s.LogPrior[0] = finiteRow(d, "log priors", 0, d.F64())
	s.LogPrior[1] = finiteRow(d, "log priors", 1, d.F64())
	s.LogOOV[0] = finiteRow(d, "OOV log-likelihoods", 0, d.F64())
	s.LogOOV[1] = finiteRow(d, "OOV log-likelihoods", 1, d.F64())
	cols := [...]string{"class 0 log-likelihoods", "class 1 log-likelihoods"}
	for c := range s.LogLik {
		words := d.StringCol(arena)
		vals := d.F64Col()
		if d.Err() != nil {
			return s
		}
		if len(words) != len(vals) {
			d.Failf("class %d has %d words but %d log-likelihoods", c, len(words), len(vals))
			return s
		}
		for i, v := range vals {
			finiteRow(d, cols[c], i, v)
		}
		s.LogLik[c] = sentiment.LogLik{Words: words, Vals: vals}
	}
	return s
}

// decodeEmbedding decodes a w2v block, or with build false only walks
// it: the same reads and checks, with no column built.
func decodeEmbedding(d *colfmt.Dec, arena string, build bool) *word2vec.Snapshot {
	s := &word2vec.Snapshot{}
	s.Dim = d.Int()
	n := int(d.Uvarint())
	var words, counts int
	if build {
		s.Words = d.StringCol(arena)
		s.Counts = d.IntsCol()
		words, counts = len(s.Words), len(s.Counts)
	} else {
		words = d.SkipStringCol(arena)
		counts = d.ColLen(1)
		for i := 0; i < counts; i++ {
			d.Int() // IntsCol's check, without the column
		}
	}
	if d.Err() != nil {
		return s
	}
	if s.Dim < 1 || s.Dim > 1<<16 {
		d.Failf("embedding dim %d out of range", s.Dim)
		return s
	}
	if n != words || counts != words {
		d.Failf("embedding shape mismatch: %d promised, %d words, %d counts", n, words, counts)
		return s
	}
	if !build {
		d.SkipF64s("vectors", words*s.Dim, s.Dim)
		return nil
	}
	// One backing array, made only once the payload is known to hold it.
	flat := d.F64s(words * s.Dim)
	if d.Err() != nil {
		return s
	}
	s.Vectors = make([][]float64, words)
	for i := range s.Vectors {
		s.Vectors[i], flat = flat[:s.Dim:s.Dim], flat[s.Dim:]
	}
	return s
}

func decodeGBT(d *colfmt.Dec, arena string) *gbt.Snapshot {
	s := &gbt.Snapshot{}
	s.Config.Rounds = d.Int()
	s.Config.MaxDepth = d.Int()
	s.Config.LearningRate = finite(d, "config LearningRate", d.F64())
	s.Config.Lambda = finite(d, "config Lambda", d.F64())
	s.Config.Gamma = finite(d, "config Gamma", d.F64())
	s.Config.MinChildWeight = finite(d, "config MinChildWeight", d.F64())
	s.Config.Subsample = finite(d, "config Subsample", d.F64())
	s.Config.ColSample = finite(d, "config ColSample", d.F64())
	s.Config.Seed = d.Varint()
	s.Config.Workers = d.Int()
	s.BaseScore = finite(d, "base score", d.F64())
	s.SplitCount = d.IntsCol()
	s.Names = d.StringCol(arena)

	counts := d.IntsCol()
	if d.Err() != nil {
		return s
	}
	total := 0
	for ti, c := range counts {
		if c < 0 {
			d.Failf("tree %d has negative node count %d", ti, c)
			return s
		}
		total += c
	}
	// Each node column is decoded straight into its field of one node
	// array that every tree slices; the first column's length, which
	// the payload bounds, must match before the array is made.
	if !nodeColumn(d, "features", 1, total) {
		return s
	}
	nodes := make([]gbt.NodeDTO, total)
	decodeNodes(d, nodes)
	if d.Err() != nil {
		return s
	}
	s.Trees = make([][]gbt.NodeDTO, len(counts))
	for ti, c := range counts {
		s.Trees[ti], nodes = nodes[:c:c], nodes[c:]
	}
	return s
}

// decodeNodes reads the node columns, the first one's length already
// read, into their fields of nodes: one store per value, nothing
// allocated.
//
//cats:hotpath
func decodeNodes(d *colfmt.Dec, nodes []gbt.NodeDTO) {
	for i := range nodes {
		nodes[i].Feature = d.Int()
	}
	nodeColumn(d, "thresholds", 8, len(nodes))
	for i := range nodes {
		nodes[i].Threshold = finiteRow(d, "node column thresholds", i, d.F64())
	}
	nodeColumn(d, "leaves", 1, len(nodes))
	for i := range nodes {
		nodes[i].Leaf = d.Byte() == 1
	}
	nodeColumn(d, "weights", 8, len(nodes))
	for i := range nodes {
		nodes[i].Weight = finiteRow(d, "node column weights", i, d.F64())
	}
	nodeColumn(d, "lefts", 1, len(nodes))
	for i := range nodes {
		nodes[i].Left = d.Int()
	}
	nodeColumn(d, "rights", 1, len(nodes))
	for i := range nodes {
		nodes[i].Right = d.Int()
	}
}

// finite returns v, failing d if it is NaN or ±Inf: every float a
// loaded model holds is one its JSON spelling can carry. name names the
// field.
func finite(d *colfmt.Dec, name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Failf("%s is %v", name, v)
	}
	return v
}

// finiteRow is finite for row row of column col.
//
//cats:hotpath
func finiteRow(d *colfmt.Dec, col string, row int, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Failf("%s row %d is %v", col, row, v)
	}
	return v
}

// nodeColumn reads a node column's length and reports whether it is
// the n nodes the trees hold, failing d if not.
//
//cats:hotpath
func nodeColumn(d *colfmt.Dec, name string, minBytes, n int) bool {
	got := d.ColLen(minBytes)
	if d.Err() == nil && got != n {
		d.Failf("node column %s has %d values, the trees hold %d nodes", name, got, n)
	}
	return d.Err() == nil
}

// decodeMatrix decodes the drift sample, or with build false only
// walks it. Every row is a feature vector: a row of any other length is
// refused here, before its floats are counted or allocated.
func decodeMatrix(d *colfmt.Dec, build bool) [][]float64 {
	n := int(d.Uvarint())
	lens := d.IntsCol()
	if d.Err() != nil {
		return nil
	}
	if n != len(lens) {
		d.Failf("matrix promises %d rows but has %d row lengths", n, len(lens))
		return nil
	}
	if n == 0 {
		// The writer leaves out the block (and its meta flag) for an empty
		// sample, so a re-save of this file would not reproduce it.
		d.Failf("matrix has no rows")
		return nil
	}
	for i, ln := range lens {
		if ln != features.NumFeatures {
			d.Failf("matrix row %d has %d features, the extractor produces %d", i, ln, features.NumFeatures)
			return nil
		}
	}
	total := n * features.NumFeatures
	if !build {
		d.SkipF64s("sample", total, features.NumFeatures)
		return nil
	}
	// The floats behind the rows are checked before the one backing
	// array every row slices is made.
	flat := d.F64s(total)
	if d.Err() != nil {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], flat = flat[:features.NumFeatures:features.NumFeatures], flat[features.NumFeatures:]
	}
	return rows
}
