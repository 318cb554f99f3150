package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/colfmt"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/sentiment"
)

// Columnar snapshot layout (colfmt container, KindSnapshot). Blocks in
// write order; readers skip unknown names. A load decodes every block
// it keeps (readSnapshotColumnar):
//
//	meta        snapshot version, classifier kind (always "xgboost"),
//	            detector config, presence flags
//	arena       shared string bytes every string column points into
//	vocab       segmenter dictionary            (string col)
//	lexicon     positive + negative lexicons    (2 string cols)
//	sentiment   priors/OOV + per-class word and loglik columns, words
//	            sorted, each once
//	gbt         config, base score, split counts, names, node columns
//	trainsample drift-baseline feature matrix   (when flagged)
//
// Files written before the word2vec embedding left the model also hold
// a "w2v" block between sentiment and gbt, with meta flag bit 0 set.
// The embedding is training-only (it expands the lexicons, which are
// stored), so a load skips that block as an unknown one, unread past
// its CRC, and ignores the bit; no writer sets either.
//
// The writer is byte-stable: the same snapshot always encodes to the
// same bytes (sentiment words in sorted order, a block present exactly
// when its flag is set), so content-hash model versions stay
// meaningful.

// snapFlagTrainSample is the meta block's presence flag for the
// trainsample block. Bit 0 flagged an embedding in older files.
const snapFlagTrainSample = 1 << 1

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
	cw, err := colfmt.NewWriter(w, colfmt.KindSnapshot)
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}

	var arena colfmt.Arena
	var meta, vocab, lexicon, sent, gbtBlk, train colfmt.Enc

	meta.Uvarint(uint64(s.Version))
	meta.Str(metaModelKind)
	meta.Varint(int64(s.Config.MinSalesVolume))
	meta.Bool(s.Config.DisableRuleFilter)
	meta.F64(s.Config.Threshold)
	var flags byte
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
	encodeGBT(&gbtBlk, &arena, s.GBT)
	if len(s.TrainingSample) > 0 {
		encodeMatrix(&train, s.TrainingSample)
	}

	cw.WriteBlock("meta", meta.Bytes())
	cw.WriteBlock("arena", arena.Bytes())
	cw.WriteBlock("vocab", vocab.Bytes())
	cw.WriteBlock("lexicon", lexicon.Bytes())
	cw.WriteBlock("sentiment", sent.Bytes())
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
// name, and byte offset via colfmt.Error. The meta flags say whether
// the file holds a trainsample block; a block they deny is an error, as
// is a missing block they promise.
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
		case "gbt":
			decode = func(d *colfmt.Dec) { s.GBT = decodeGBT(d, arena) }
		case "trainsample":
			if flags&snapFlagTrainSample == 0 {
				return nil, fmt.Errorf("core: decode snapshot: block %q present but meta flags no training sample", name)
			}
			decode = func(d *colfmt.Dec) { s.TrainingSample = decodeMatrix(d) }
		default:
			// An unknown block, or an older file's w2v: skip it for
			// forward (and backward) compatibility.
			continue
		}
		if err := cr.Decode(name, payload, decode); err != nil {
			return nil, fmt.Errorf("core: decode snapshot: %w", err)
		}
	}
	for _, required := range []string{"meta", "arena", "vocab", "lexicon", "sentiment", "gbt"} {
		if !seen[required] {
			return nil, fmt.Errorf("core: decode snapshot: missing block %q", required)
		}
	}
	if flags&snapFlagTrainSample != 0 && !seen["trainsample"] {
		return nil, fmt.Errorf("core: decode snapshot: meta promises a training sample but block %q is missing", "trainsample")
	}
	return s, nil
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

// decodeMatrix decodes the drift sample. Every row is a feature
// vector: a row of any other length is refused here, before its floats
// are counted or allocated, and so is a value that is NaN or ±Inf.
func decodeMatrix(d *colfmt.Dec) [][]float64 {
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
	// One backing array every row slices, made only once the payload
	// is known to hold it.
	flat := d.F64s(n * features.NumFeatures)
	if d.Err() != nil {
		return nil
	}
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.Failf("sample row %d value %d is %v", i/features.NumFeatures, i%features.NumFeatures, v)
			return nil
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], flat = flat[:features.NumFeatures:features.NumFeatures], flat[features.NumFeatures:]
	}
	return rows
}
