package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/colfmt"
	"repro/internal/ml/gbt"
	"repro/internal/sentiment"
	"repro/internal/word2vec"
)

// Columnar snapshot layout (colfmt container, KindSnapshot). Blocks in
// write order; readers skip unknown names:
//
//	meta        snapshot version, classifier kind (always "xgboost"),
//	            detector config, presence flags
//	arena       shared string bytes every string column points into
//	vocab       segmenter dictionary            (string col)
//	lexicon     positive + negative lexicons    (2 string cols)
//	sentiment   priors/OOV + per-class word→loglik pairs, words sorted
//	w2v         dim, counts, embeddings, words  (when present)
//	gbt         config, base score, split counts, names, node columns
//	trainsample drift-baseline feature matrix   (when present)
//
// The writer is byte-stable: the same snapshot always encodes to the
// same bytes (sentiment maps are serialized in sorted word order), so
// content-hash model versions stay meaningful.

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
	encodeSentiment(&sent, &arena, s.Analyzer.Sentiment)
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

func encodeSentiment(e *colfmt.Enc, arena *colfmt.Arena, s *sentiment.Snapshot) {
	e.F64(s.LogPrior[0])
	e.F64(s.LogPrior[1])
	e.F64(s.LogOOV[0])
	e.F64(s.LogOOV[1])
	for c := 0; c < 2; c++ {
		words := make([]string, 0, len(s.LogLik[c]))
		for w := range s.LogLik[c] {
			words = append(words, w)
		}
		sort.Strings(words)
		e.StringCol(arena, words)
		vals := make([]float64, len(words))
		for i, w := range words {
			vals[i] = s.LogLik[c][w]
		}
		e.F64Col(vals)
	}
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
		name, payload, err := cr.Next()
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
				s.Config.Threshold = d.F64()
				flags = d.Byte()
			}
		case "arena":
			// One copy for the whole snapshot: every string column below
			// returns slices of this arena.
			arena = string(payload)
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
			decode = func(d *colfmt.Dec) { s.Analyzer.Embedding = decodeEmbedding(d, arena) }
		case "gbt":
			decode = func(d *colfmt.Dec) { s.GBT = decodeGBT(d, arena) }
		case "trainsample":
			decode = func(d *colfmt.Dec) { s.TrainingSample = decodeMatrix(d) }
		default:
			continue // unknown block: skip for forward compatibility
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
	if flags&snapFlagEmbedding != 0 && !seen["w2v"] {
		return nil, fmt.Errorf("core: decode snapshot: meta promises an embedding but block %q is missing", "w2v")
	}
	if flags&snapFlagTrainSample != 0 && !seen["trainsample"] {
		return nil, fmt.Errorf("core: decode snapshot: meta promises a training sample but block %q is missing", "trainsample")
	}
	return s, nil
}

func decodeSentiment(d *colfmt.Dec, arena string) *sentiment.Snapshot {
	s := &sentiment.Snapshot{}
	s.LogPrior[0] = d.F64()
	s.LogPrior[1] = d.F64()
	s.LogOOV[0] = d.F64()
	s.LogOOV[1] = d.F64()
	for c := 0; c < 2; c++ {
		words := d.StringCol(arena)
		vals := d.F64Col()
		if d.Err() != nil {
			return s
		}
		if len(words) != len(vals) {
			d.Failf("class %d has %d words but %d log-likelihoods", c, len(words), len(vals))
			return s
		}
		s.LogLik[c] = make(map[string]float64, len(words))
		for i, w := range words {
			s.LogLik[c][w] = vals[i]
		}
	}
	return s
}

func decodeEmbedding(d *colfmt.Dec, arena string) *word2vec.Snapshot {
	s := &word2vec.Snapshot{}
	s.Dim = d.Int()
	n := int(d.Uvarint())
	s.Words = d.StringCol(arena)
	s.Counts = d.IntsCol()
	if d.Err() != nil {
		return s
	}
	if s.Dim < 0 || s.Dim > 1<<16 {
		d.Failf("embedding dim %d out of range", s.Dim)
		return s
	}
	if n != len(s.Words) || len(s.Counts) != len(s.Words) {
		d.Failf("embedding shape mismatch: %d promised, %d words, %d counts", n, len(s.Words), len(s.Counts))
		return s
	}
	s.Vectors = make([][]float64, len(s.Words))
	for i := range s.Vectors {
		v := make([]float64, s.Dim)
		for j := range v {
			v[j] = d.F64()
		}
		if d.Err() != nil {
			return s
		}
		s.Vectors[i] = v
	}
	return s
}

func decodeGBT(d *colfmt.Dec, arena string) *gbt.Snapshot {
	s := &gbt.Snapshot{}
	s.Config.Rounds = d.Int()
	s.Config.MaxDepth = d.Int()
	s.Config.LearningRate = d.F64()
	s.Config.Lambda = d.F64()
	s.Config.Gamma = d.F64()
	s.Config.MinChildWeight = d.F64()
	s.Config.Subsample = d.F64()
	s.Config.ColSample = d.F64()
	s.Config.Seed = d.Varint()
	s.Config.Workers = d.Int()
	s.BaseScore = d.F64()
	s.SplitCount = d.IntsCol()
	s.Names = d.StringCol(arena)

	counts := d.IntsCol()
	features := d.IntsCol()
	thresholds := d.F64Col()
	leaves := d.ByteCol()
	weights := d.F64Col()
	lefts := d.IntsCol()
	rights := d.IntsCol()
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
	if len(features) != total || len(thresholds) != total || len(leaves) != total ||
		len(weights) != total || len(lefts) != total || len(rights) != total {
		d.Failf("node columns disagree with %d total nodes: %d features, %d thresholds, %d leaves, %d weights, %d lefts, %d rights",
			total, len(features), len(thresholds), len(leaves), len(weights), len(lefts), len(rights))
		return s
	}
	s.Trees = make([][]gbt.NodeDTO, len(counts))
	off := 0
	for ti, c := range counts {
		tree := make([]gbt.NodeDTO, c)
		off = fillNodes(tree, off, features, thresholds, leaves, weights, lefts, rights)
		s.Trees[ti] = tree
	}
	return s
}

// fillNodes transposes the flat node columns into one tree's node
// structs, starting at column offset off and returning the offset past
// the tree: one struct store per node, nothing allocated.
//
//cats:hotpath
func fillNodes(tree []gbt.NodeDTO, off int, features []int, thresholds []float64, leaves []byte, weights []float64, lefts, rights []int) int {
	for i := range tree {
		tree[i] = gbt.NodeDTO{
			Feature:   features[off],
			Threshold: thresholds[off],
			Leaf:      leaves[off] == 1,
			Weight:    weights[off],
			Left:      lefts[off],
			Right:     rights[off],
		}
		off++
	}
	return off
}

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
	rows := make([][]float64, len(lens))
	for i, ln := range lens {
		if ln < 0 || ln > 1<<20 {
			d.Failf("matrix row %d length %d out of range", i, ln)
			return nil
		}
		row := make([]float64, ln)
		for j := range row {
			row[j] = d.F64()
		}
		if d.Err() != nil {
			return nil
		}
		rows[i] = row
	}
	return rows
}
