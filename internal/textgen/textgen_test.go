package textgen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tokenize"
)

func TestBankSizes(t *testing.T) {
	b := NewBank()
	// Table I: the positive and negative sets hold ~200 words each.
	if got := len(b.Positive); got < 190 || got > 230 {
		t.Errorf("len(Positive) = %d, want ~200", got)
	}
	if got := len(b.Negative); got < 190 || got > 230 {
		t.Errorf("len(Negative) = %d, want ~200", got)
	}
	if len(b.Neutral) < 200 {
		t.Errorf("len(Neutral) = %d, want >= 200", len(b.Neutral))
	}
	if len(b.Function) < 30 {
		t.Errorf("len(Function) = %d, want >= 30", len(b.Function))
	}
}

func TestBankDeterministic(t *testing.T) {
	a, b := NewBank(), NewBank()
	if !reflect.DeepEqual(a.Positive, b.Positive) || !reflect.DeepEqual(a.Negative, b.Negative) {
		t.Fatal("NewBank is not deterministic")
	}
}

func TestBankClassesDisjoint(t *testing.T) {
	b := NewBank()
	neg := map[string]bool{}
	for _, w := range b.Negative {
		neg[w] = true
	}
	for _, w := range b.Positive {
		if neg[w] {
			t.Errorf("word %q is both positive and negative", w)
		}
	}
}

func TestIsPositiveIncludesHomographs(t *testing.T) {
	b := NewBank()
	if !b.IsPositive("好评") {
		t.Error("IsPositive(好评) = false")
	}
	if !b.IsPositive("好坪") {
		t.Error("IsPositive(好坪 homograph) = false")
	}
	if b.IsPositive("差评") {
		t.Error("IsPositive(差评) = true")
	}
	if !b.IsNegative("差评") {
		t.Error("IsNegative(差评) = false")
	}
}

func TestVocabularySortedUnique(t *testing.T) {
	b := NewBank()
	v := b.Vocabulary()
	for i := 1; i < len(v); i++ {
		if v[i-1] >= v[i] {
			t.Fatalf("Vocabulary not sorted-unique at %d: %q >= %q", i, v[i-1], v[i])
		}
	}
	want := map[string]bool{"好评": true, "好坪": true, "差评": true, "质量": true, "的": true}
	seen := map[string]bool{}
	for _, w := range v {
		if want[w] {
			seen[w] = true
		}
	}
	for w := range want {
		if !seen[w] {
			t.Errorf("Vocabulary missing %q", w)
		}
	}
}

func newGen(seed int64) *Generator {
	return NewGenerator(NewBank(), rand.New(rand.NewSource(seed)))
}

func TestCommentNonEmpty(t *testing.T) {
	g := newGen(1)
	for i := 0; i < 50; i++ {
		if g.Comment(FraudStyle()) == "" || g.Comment(NormalStyle()) == "" {
			t.Fatal("empty comment generated")
		}
	}
}

// TestAppendCommentMatchesComment: appending comments into one buffer
// draws the same text as Comment from the same seed, leaves the bytes
// already in dst alone, and draws each comment's repeats from its own
// words only (the scratch word list is reset per comment).
func TestAppendCommentMatchesComment(t *testing.T) {
	a, b := newGen(4), newGen(4)
	buf := []byte("prefix")
	var want string
	for i := 0; i < 200; i++ {
		st := FraudStyle()
		if i%3 == 0 {
			st = NormalStyle()
		}
		buf = a.AppendComment(buf, st)
		want += b.Comment(st)
	}
	if got := string(buf); got != "prefix"+want {
		t.Fatalf("AppendComment wrote %d bytes, Comment %d: texts differ", len(got)-len("prefix"), len(want))
	}
	if len(a.used) > FraudStyle().ClausesMax*FraudStyle().WordsMax {
		t.Fatalf("scratch holds %d words: not reset per comment", len(a.used))
	}
}

func TestFraudCommentsLongerOnAverage(t *testing.T) {
	g := newGen(2)
	const n = 300
	var fraudLen, normalLen int
	for i := 0; i < n; i++ {
		fraudLen += tokenize.RuneLen(g.Comment(FraudStyle()))
		normalLen += tokenize.RuneLen(g.Comment(NormalStyle()))
	}
	if fraudLen <= 2*normalLen {
		t.Fatalf("fraud comments should be much longer: fraud=%d normal=%d", fraudLen, normalLen)
	}
}

func TestFraudCommentsMorePositive(t *testing.T) {
	g := newGen(3)
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	count := func(style Style) (pos, neg, total int) {
		for i := 0; i < 200; i++ {
			for _, w := range seg.Words(g.Comment(style)) {
				total++
				if b.IsPositive(w) {
					pos++
				}
				if b.IsNegative(w) {
					neg++
				}
			}
		}
		return pos, neg, total
	}
	fp, fn, ft := count(FraudStyle())
	np, nn, nt := count(NormalStyle())
	fraudPosRate := float64(fp) / float64(ft)
	normalPosRate := float64(np) / float64(nt)
	// Normal comments open with a verdict too (LeadVerdict), so the
	// word-level gap is moderate; the stronger fraud signals are
	// structural (length, duplication, punctuation).
	if fraudPosRate <= 1.25*normalPosRate {
		t.Errorf("fraud positive rate %.3f not > 1.25× normal %.3f", fraudPosRate, normalPosRate)
	}
	fraudNegRate := float64(fn) / float64(ft)
	normalNegRate := float64(nn) / float64(nt)
	if fraudNegRate >= normalNegRate {
		t.Errorf("fraud negative rate %.4f not < normal %.4f", fraudNegRate, normalNegRate)
	}
}

func TestFraudCommentsMorePunctuation(t *testing.T) {
	g := newGen(4)
	var fraud, normal int
	for i := 0; i < 200; i++ {
		fraud += tokenize.CountPunct(g.Comment(FraudStyle()))
		normal += tokenize.CountPunct(g.Comment(NormalStyle()))
	}
	if fraud <= normal {
		t.Fatalf("fraud punct %d should exceed normal %d", fraud, normal)
	}
}

func TestHomographsAppearInFraudText(t *testing.T) {
	g := newGen(5)
	var joined strings.Builder
	for i := 0; i < 2000; i++ {
		joined.WriteString(g.Comment(FraudStyle()))
	}
	text := joined.String()
	if !strings.Contains(text, "好坪") && !strings.Contains(text, "好平") && !strings.Contains(text, "很恏") && !strings.Contains(text, "不諎") && !strings.Contains(text, "满懿") {
		t.Error("no homograph variants in 2000 fraud comments")
	}
}

func TestPolarCommentPolarity(t *testing.T) {
	g := newGen(6)
	b := g.Bank()
	seg := tokenize.NewSegmenter(b.Vocabulary())
	polarity := func(positive bool) float64 {
		var pos, neg int
		for i := 0; i < 200; i++ {
			for _, w := range seg.Words(g.PolarComment(positive)) {
				if b.IsPositive(w) {
					pos++
				}
				if b.IsNegative(w) {
					neg++
				}
			}
		}
		return float64(pos - neg)
	}
	if polarity(true) <= 0 {
		t.Error("positive polar comments not positive-dominant")
	}
	if polarity(false) >= 0 {
		t.Error("negative polar comments not negative-dominant")
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	a, b := newGen(42), newGen(42)
	for i := 0; i < 20; i++ {
		if a.Comment(FraudStyle()) != b.Comment(FraudStyle()) {
			t.Fatal("same seed produced different comments")
		}
	}
}

func TestNamesNonEmpty(t *testing.T) {
	g := newGen(7)
	if g.ItemName() == "" || g.ShopName() == "" {
		t.Fatal("empty item/shop name")
	}
	nick := g.Nickname()
	if !strings.Contains(nick, "***") {
		t.Fatalf("Nickname %q missing mask", nick)
	}
}

func TestStyleBounds(t *testing.T) {
	// Clause/word counts must respect the configured bounds.
	g := newGen(8)
	st := Style{ClausesMin: 2, ClausesMax: 2, WordsMin: 3, WordsMax: 3, ExclamationRate: 0}
	seg := tokenize.NewSegmenter(g.Bank().Vocabulary())
	for i := 0; i < 30; i++ {
		words := seg.Words(g.Comment(st))
		if len(words) != 6 {
			t.Fatalf("got %d words, want exactly 6 (2 clauses × 3 words)", len(words))
		}
	}
}
