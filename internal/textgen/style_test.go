package textgen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tokenize"
)

// countPolar tallies positive/negative word rates for a style.
func countPolar(t *testing.T, g *Generator, st Style, n int) (posRate, negRate float64) {
	t.Helper()
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	var pos, neg, total int
	for i := 0; i < n; i++ {
		for _, w := range seg.Words(g.Comment(st)) {
			total++
			if b.IsPositive(w) {
				pos++
			}
			if b.IsNegative(w) {
				neg++
			}
		}
	}
	return float64(pos) / float64(total), float64(neg) / float64(total)
}

func TestSubtleFraudBetweenNormalAndBlatant(t *testing.T) {
	g := newGen(31)
	blatantPos, _ := countPolar(t, g, FraudStyle(), 300)
	subtlePos, _ := countPolar(t, g, SubtleFraudStyle(), 300)
	normalPos, _ := countPolar(t, g, NormalStyle(), 300)
	if !(subtlePos < blatantPos) {
		t.Errorf("subtle pos rate %.3f not below blatant %.3f", subtlePos, blatantPos)
	}
	if !(subtlePos > normalPos*0.8) {
		t.Errorf("subtle pos rate %.3f too far below normal %.3f", subtlePos, normalPos)
	}
}

func TestEnthusiasticHasNoDuplicationSignal(t *testing.T) {
	// Enthusiastic organic reviewers never paste templates: per-comment
	// unique-word ratio must beat the subtle campaign's.
	g := newGen(32)
	seg := tokenize.NewSegmenter(g.Bank().Vocabulary())
	ratio := func(st Style) float64 {
		var sum float64
		const n = 300
		for i := 0; i < n; i++ {
			words := seg.Words(g.Comment(st))
			uniq := map[string]struct{}{}
			for _, w := range words {
				uniq[w] = struct{}{}
			}
			if len(words) > 0 {
				sum += float64(len(uniq)) / float64(len(words))
			}
		}
		return sum / n
	}
	enth := ratio(EnthusiasticStyle())
	subtle := ratio(SubtleFraudStyle())
	if enth <= subtle {
		t.Fatalf("enthusiastic unique ratio %.3f <= subtle fraud %.3f", enth, subtle)
	}
}

func TestLeadVerdictReducesNeutralComments(t *testing.T) {
	g := newGen(33)
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	neutralShare := func(st Style) float64 {
		neutral := 0
		const n = 400
		for i := 0; i < n; i++ {
			hasPolar := false
			for _, w := range seg.Words(g.Comment(st)) {
				if b.IsPositive(w) || b.IsNegative(w) {
					hasPolar = true
					break
				}
			}
			if !hasPolar {
				neutral++
			}
		}
		return float64(neutral) / n
	}
	with := NormalStyle() // LeadVerdict 0.75
	without := NormalStyle()
	without.LeadVerdict = 0
	if a, b := neutralShare(with), neutralShare(without); a >= b {
		t.Fatalf("LeadVerdict did not reduce neutral comments: %.3f vs %.3f", a, b)
	}
}

func TestZipfBiasFavorsHeadWords(t *testing.T) {
	// Head (paper-sourced) positive words must be far more frequent
	// than synthesized tail words.
	g := newGen(34)
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		for _, w := range seg.Words(g.Comment(FraudStyle())) {
			counts[w]++
		}
	}
	var head, tail int
	for i, w := range b.Positive {
		if i < 20 {
			head += counts[w]
		}
		if i >= len(b.Positive)-20 {
			tail += counts[w]
		}
	}
	if head < 5*tail {
		t.Fatalf("head positive words (%d) not dominating tail (%d)", head, tail)
	}
}

func TestMixedStyleLeansNegative(t *testing.T) {
	g := newGen(35)
	pos, neg := countPolar(t, g, MixedStyle(), 300)
	if neg <= pos {
		t.Fatalf("mixed style pos %.3f >= neg %.3f", pos, neg)
	}
}

func TestClauseBurstiness(t *testing.T) {
	// Polar words must cluster within clauses: the probability that a
	// positive word's neighbor (within the same clause) is positive
	// should far exceed the marginal positive rate. This co-occurrence
	// structure is what the word2vec lexicon expansion depends on.
	g := NewGenerator(NewBank(), rand.New(rand.NewSource(36)))
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	var posPairs, posNeighbors, posWords, words int
	for i := 0; i < 500; i++ {
		ws := seg.Words(g.Comment(NormalStyle()))
		for j, w := range ws {
			words++
			if !b.IsPositive(w) {
				continue
			}
			posWords++
			if j+1 < len(ws) {
				posNeighbors++
				if b.IsPositive(ws[j+1]) {
					posPairs++
				}
			}
		}
	}
	marginal := float64(posWords) / float64(words)
	conditional := float64(posPairs) / float64(posNeighbors)
	if conditional < 1.3*marginal {
		t.Fatalf("P(pos|prev pos)=%.3f not above marginal %.3f: no clause bursts", conditional, marginal)
	}
}

func TestPlatformNeutralPool(t *testing.T) {
	a := PlatformNeutralPool(7, 100)
	b := PlatformNeutralPool(7, 100)
	c := PlatformNeutralPool(8, 100)
	if len(a) != 100 {
		t.Fatalf("pool size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pool not deterministic per seed")
		}
	}
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical pools")
	}
	// Pool must be disjoint from the shared bank vocabulary.
	bank := NewBank()
	vocab := map[string]bool{}
	for _, w := range bank.Vocabulary() {
		vocab[w] = true
	}
	for _, w := range a {
		if vocab[w] {
			t.Fatalf("pool word %q collides with bank vocabulary", w)
		}
	}
	seen := map[string]bool{}
	for _, w := range a {
		if seen[w] {
			t.Fatalf("duplicate pool word %q", w)
		}
		seen[w] = true
	}
}

// TestPlatformNeutralPoolCapsAtCharset: the charset's 24 runes make
// only 24² two-character words, so asking for more returns every one.
func TestPlatformNeutralPoolCapsAtCharset(t *testing.T) {
	pool := PlatformNeutralPool(7, 1000)
	if len(pool) != 576 {
		t.Fatalf("pool size = %d, want 576", len(pool))
	}
	seen := map[string]bool{}
	for _, w := range pool {
		if seen[w] {
			t.Fatalf("duplicate pool word %q", w)
		}
		seen[w] = true
	}
}

func TestSetExtraNeutralInjectsWords(t *testing.T) {
	g := newGen(37)
	pool := PlatformNeutralPool(9, 50)
	g.SetExtraNeutral(pool, 0.5)
	found := false
	for i := 0; i < 200 && !found; i++ {
		c := g.Comment(NormalStyle())
		for _, w := range pool[:10] {
			if strings.Contains(c, w) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("extra neutral words never appeared")
	}
}
