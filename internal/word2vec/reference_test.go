package word2vec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// trainReference is Train with the sequential step that trainer.step
// replaced: the oracle FuzzTrainDifferential holds Train to.
func trainReference(corpus [][]string, cfg Config) (*Model, error) {
	t, err := newTrainer(corpus, cfg)
	if err != nil {
		return nil, err
	}
	t.run(t.referenceStep)
	return t.m, nil
}

// referenceStep performs one (center, context) SGD update with negative
// samples, one target at a time, each negative drawn just before its
// update.
func (t *trainer) referenceStep(center, context int, lr float64) {
	vin := t.m.in[center]
	grad := t.grad
	for d := range grad {
		grad[d] = 0
	}
	// One positive plus Negative sampled negatives.
	for k := 0; k <= t.cfg.Negative; k++ {
		var target int
		var label float64
		if k == 0 {
			target, label = context, 1
		} else {
			target = int(t.table[t.rng.Intn(len(t.table))])
			if target == context {
				continue
			}
			label = 0
		}
		vout := t.out[target]
		var dot float64
		for d := range vin {
			dot += vin[d] * vout[d]
		}
		g := (sigmoid(dot) - label) * lr
		for d := range vin {
			grad[d] += g * vout[d]
			vout[d] -= g * vin[d]
		}
	}
	for d := range vin {
		vin[d] -= grad[d]
	}
}

// randomCorpus draws sentences of 1-12 words over a vocabulary of
// vocab words, skewed toward the first few so that frequencies differ.
func randomCorpus(seed int64, vocab, sentences int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, vocab)
	for i := range words {
		words[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	corpus := make([][]string, sentences)
	for i := range corpus {
		sent := make([]string, 1+rng.Intn(12))
		for j := range sent {
			sent[j] = words[rng.Intn(1+rng.Intn(vocab))]
		}
		corpus[i] = sent
	}
	return corpus
}

// FuzzTrainDifferential: Train's vectors equal the sequential
// reference's bit for bit. Two- and three-word vocabularies make steps
// that draw the context as a negative or one negative twice (the
// sequential fallback); larger ones make steps whose targets are all
// distinct (the independent chains). Dim runs 1-70, Negative 1-12,
// Window 1-6, with subsampling on and off.
func FuzzTrainDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(7), uint8(4), uint8(3), false)
	f.Add(int64(2), uint8(1), uint8(30), uint8(0), uint8(11), uint8(5), true)
	f.Add(int64(3), uint8(38), uint8(59), uint8(31), uint8(4), uint8(3), false)
	f.Add(int64(4), uint8(25), uint8(40), uint8(69), uint8(7), uint8(0), true)
	f.Add(int64(5), uint8(12), uint8(50), uint8(32), uint8(0), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, vocab, sentences, dim, negative, window uint8, subsample bool) {
		corpus := randomCorpus(seed, 2+int(vocab)%39, 1+int(sentences)%60)
		cfg := Config{
			Dim:      1 + int(dim)%70,
			Negative: 1 + int(negative)%12,
			Window:   1 + int(window)%6,
			Epochs:   2,
			MinCount: 1,
			Seed:     seed,
		}
		if subsample {
			cfg.SubsampleT = 1e-2
		}
		got, err := Train(corpus, cfg)
		want, wantErr := trainReference(corpus, cfg)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Train err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i, w := range want.words {
			for d, x := range want.in[i] {
				if y := got.in[i][d]; math.Float64bits(y) != math.Float64bits(x) {
					t.Fatalf("%+v: %q[%d] = %v, reference %v", cfg, w, d, y, x)
				}
			}
		}
	})
}

// vectorsHash is FNV-64a over each word followed by its vector's
// float64 bits, in vocabulary order.
func vectorsHash(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range m.Words() {
		h.Write([]byte(w))
		v, _ := m.Vector(w)
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainVectorsPinned: fixed trainings give the vectors they gave
// before the step ran its targets as independent chains, to the bit.
// TestDeterministicTraining compares a model only with itself, so a
// change to the numerics would pass it unnoticed. A change meant to
// move the vectors updates these hashes and says so.
func TestTrainVectorsPinned(t *testing.T) {
	seg := tokenize.NewSegmenter(textgen.NewBank().Vocabulary())
	var synthetic [][]string
	for _, c := range synth.TrainingCorpus(1000, 18) {
		synthetic = append(synthetic, seg.Words(c))
	}
	cases := []struct {
		name   string
		corpus [][]string
		cfg    Config
		want   uint64
	}{
		{"clusters", clusterCorpus([][]string{clusterA, clusterB}, 600, 1),
			Config{Dim: 16, Epochs: 5, MinCount: 2, Seed: 1}, 0xe5273e9c4431303f},
		{"clusters-subsampled", clusterCorpus([][]string{clusterA, clusterB}, 300, 3),
			Config{Dim: 33, Window: 3, Negative: 8, Epochs: 2, MinCount: 1, SubsampleT: 1e-2, Seed: 9}, 0x7c81ea6e0139db64},
		{"synthetic-comments", synthetic, Config{}, 0x09c1eb29baac5989},
	}
	for _, c := range cases {
		m, err := Train(c.corpus, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := vectorsHash(m); got != c.want {
			t.Errorf("%s: vectors hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// nearestReference is Nearest as it was: every similarity with both
// norms computed afresh, then a sort of the whole vocabulary.
func nearestReference(m *Model, w string, k int) []Neighbor {
	cosine := func(a, b []float64) float64 {
		var dot, na, nb float64
		for d := range a {
			dot += a[d] * b[d]
			na += a[d] * a[d]
			nb += b[d] * b[d]
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb))
	}
	v, _ := m.Vector(w)
	var sims []Neighbor
	for i, word := range m.words {
		if word != w {
			sims = append(sims, Neighbor{word, cosine(v, m.in[i])})
		}
	}
	sort.Slice(sims, func(a, b int) bool { return before(sims[a], sims[b]) })
	return sims[:min(k, len(sims))]
}

// TestNearestMatchesFullSort: the cached norms and the top-k selection
// give the full sort's neighbors and similarities, ties (repeated
// vectors) and the zero vector included.
func TestNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := &Model{dim: 5, vocab: map[string]int{}}
	for i := 0; i < 200; i++ {
		v := make([]float64, m.dim)
		switch {
		case i%17 == 3:
			copy(v, m.in[i-1])
		case i == 50:
		default:
			for d := range v {
				v[d] = rng.NormFloat64()
			}
		}
		m.vocab[fmt.Sprintf("w%03d", i)] = i
		m.words = append(m.words, fmt.Sprintf("w%03d", i))
		m.counts = append(m.counts, 1)
		m.in = append(m.in, v)
	}
	for _, w := range []string{"w000", "w002", "w003", "w050", "w199"} {
		for _, k := range []int{0, 1, 7, 50, 199, 500} {
			got, want := m.Nearest(w, k), nearestReference(m, w, k)
			if len(got) != len(want) {
				t.Fatalf("Nearest(%s, %d): %d neighbors, want %d", w, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Word != want[i].Word || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
					t.Fatalf("Nearest(%s, %d)[%d] = %+v, want %+v", w, k, i, got[i], want[i])
				}
			}
		}
	}
}
