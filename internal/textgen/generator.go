package textgen

import (
	"math/rand"
	"unicode/utf8"
)

// Style parameterizes the comment generator. The two canonical styles,
// FraudStyle and NormalStyle, are calibrated so the generated corpora
// reproduce the fraud/normal separations the paper measures: comment
// length (Fig 4), punctuation counts (Fig 2), entropy (Fig 3), unique
// word ratio (Fig 5), and positive-word saturation (word-level features
// and Fig 1's sentiment split).
type Style struct {
	// Clause structure: a comment is ClausesMin..ClausesMax clauses of
	// WordsMin..WordsMax words, separated by punctuation.
	ClausesMin, ClausesMax int
	WordsMin, WordsMax     int

	// Per-word-slot polarity rates. Whatever probability mass remains
	// goes to neutral topic and function words.
	//
	// Internally the generator works at clause granularity: a clause is
	// positive, negative or neutral as a whole, and polar clauses are
	// dense (polarDensity) in words of their polarity. The clause
	// probabilities are derived from these rates so the *word-level*
	// frequencies still match, but polar words co-occur in bursts the
	// way they do in real reviews — the co-occurrence structure the
	// word2vec lexicon expansion depends on.
	PositiveRate float64
	NegativeRate float64

	// DuplicateRate is the chance a slot repeats a word already used in
	// this comment (fraud campaigns paste template fragments, which
	// lowers the unique-word ratio).
	DuplicateRate float64

	// HomographRate is the chance a positive word is swapped for a
	// filter-evading homograph variant (好评 → 好坪).
	HomographRate float64

	// ExtraPunctRate is the chance of inserting punctuation after a
	// word inside a clause; ExclamationRate is the chance a clause
	// terminator is exclamatory rather than a comma/period.
	ExtraPunctRate  float64
	ExclamationRate float64

	// LeadVerdict is the probability the first clause carries the
	// style's dominant polarity. Real reviews open with a verdict
	// (书很好 "the book is good"), so few comments are purely neutral —
	// which is why the paper's normal sentiment distribution is
	// unimodal around 0.7 rather than spiked at 0.5 (Fig 1).
	LeadVerdict float64
}

// FraudStyle returns the generative style of illegally promoted items'
// comments: long, gushing, punctuation heavy, repetitive.
func FraudStyle() Style {
	return Style{
		ClausesMin: 5, ClausesMax: 14,
		WordsMin: 4, WordsMax: 9,
		PositiveRate:    0.45,
		NegativeRate:    0.002,
		DuplicateRate:   0.22,
		HomographRate:   0.04,
		ExtraPunctRate:  0.10,
		ExclamationRate: 0.45,
		LeadVerdict:     1,
	}
}

// NormalStyle returns the generative style of organic comments: short,
// mildly positive on average (review populations skew positive), with
// genuine negative feedback mixed in.
func NormalStyle() Style {
	return Style{
		ClausesMin: 1, ClausesMax: 4,
		WordsMin: 2, WordsMax: 7,
		PositiveRate:    0.22,
		NegativeRate:    0.05,
		DuplicateRate:   0.02,
		HomographRate:   0,
		ExtraPunctRate:  0.02,
		ExclamationRate: 0.10,
		LeadVerdict:     0.75,
	}
}

// NegativeStyle returns the style of a clearly unhappy review, used to
// build the labeled polarity corpus that trains the sentiment model.
func NegativeStyle() Style {
	return Style{
		ClausesMin: 1, ClausesMax: 5,
		WordsMin: 2, WordsMax: 7,
		PositiveRate:    0.02,
		NegativeRate:    0.30,
		DuplicateRate:   0.02,
		HomographRate:   0,
		ExtraPunctRate:  0.03,
		ExclamationRate: 0.25,
		LeadVerdict:     0.8,
	}
}

// SubtleFraudStyle returns the style of a cautious promotion campaign:
// still positive-leaning and templated, but shorter and less saturated
// than FraudStyle — close enough to organic praise to be hard to
// classify. A share of fraud items use it (synth.Config.SubtleFraud),
// which keeps detector metrics in the paper's 0.83–0.92 band instead
// of a degenerate 1.00.
func SubtleFraudStyle() Style {
	return Style{
		ClausesMin: 3, ClausesMax: 7,
		WordsMin: 3, WordsMax: 8,
		PositiveRate:    0.33,
		NegativeRate:    0.005,
		DuplicateRate:   0.16,
		HomographRate:   0.02,
		ExtraPunctRate:  0.07,
		ExclamationRate: 0.3,
		LeadVerdict:     0.9,
	}
}

// EnthusiasticStyle returns the style of a genuinely delighted organic
// reviewer — long-ish, gushing, duplicate-prone. A share of normal
// items attract these (synth.Config.EnthusiasticNormal), producing the
// false-positive pressure real detectors face.
func EnthusiasticStyle() Style {
	return Style{
		ClausesMin: 2, ClausesMax: 6,
		WordsMin: 3, WordsMax: 8,
		PositiveRate:    0.28,
		NegativeRate:    0.01,
		DuplicateRate:   0, // organic praise does not paste templates
		HomographRate:   0,
		ExtraPunctRate:  0.03,
		ExclamationRate: 0.28,
		LeadVerdict:     0.95,
	}
}

// MixedStyle returns the style of a lukewarm organic review — some
// complaints amid neutral description. Normal items mix these in, which
// keeps their sentiment distribution centered rather than bimodal at
// the extremes (Fig 1's normal mode ≈ 0.7).
func MixedStyle() Style {
	return Style{
		ClausesMin: 1, ClausesMax: 4,
		WordsMin: 2, WordsMax: 7,
		PositiveRate:    0.05,
		NegativeRate:    0.12,
		DuplicateRate:   0.02,
		HomographRate:   0,
		ExtraPunctRate:  0.03,
		ExclamationRate: 0.12,
		LeadVerdict:     0.6,
	}
}

var clauseEnders = []string{"，", "。", "，", "，"}
var exclaimEnders = []string{"！", "！！", "～", "！"}
var innerPunct = []string{"、", "…", "～"}

// Generator produces comments, item names, shop names and nicknames
// from a Bank. It is not safe for concurrent use; give each goroutine
// its own Generator (they are cheap — the Bank is shared and immutable).
type Generator struct {
	bank *Bank
	rng  *rand.Rand

	// Platform-specific neutral vocabulary (see SetExtraNeutral).
	extraNeutral []string
	extraRate    float64

	// Scratch reused across comments: used holds the words of the
	// comment being built (the pool DuplicateRate repeats from), buf
	// the bytes Comment converts to its string.
	used []string
	buf  []byte
}

// NewGenerator returns a Generator drawing randomness from rng.
func NewGenerator(bank *Bank, rng *rand.Rand) *Generator {
	return &Generator{bank: bank, rng: rng}
}

// SetExtraNeutral makes a fraction rate of neutral word slots draw from
// a platform-specific pool instead of the shared bank. Different
// platforms have different product vocabularies; the cross-platform
// robustness experiments use this to measure how detection degrades as
// the target platform's vocabulary diverges from the training
// platform's.
func (g *Generator) SetExtraNeutral(words []string, rate float64) {
	g.extraNeutral = words
	g.extraRate = clamp01(rate)
}

// PlatformNeutralPool deterministically synthesizes min(n, 576)
// distinct two-character neutral words unique to the given platform
// seed — disjoint from the bank's vocabulary by construction (a
// dedicated charset). The charset has 24 runes, so there are only
// 24² = 576 such words: a larger n returns all 576.
func PlatformNeutralPool(seed int64, n int) []string {
	chars := []rune("轴锚舵帆桨缆锭梭辊杠钳锉凿铆焊阀泵罐斗筛辘轳碾磨")
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]struct{}{}
	words := len(chars) * len(chars)
	out := make([]string, 0, min(n, words))
	for len(out) < n && len(seen) < words {
		w := string([]rune{chars[rng.Intn(len(chars))], chars[rng.Intn(len(chars))]})
		if _, ok := seen[w]; ok {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// Bank returns the underlying word bank.
func (g *Generator) Bank() *Bank { return g.bank }

// polarDensity is the fraction of word slots inside a positive or
// negative clause that carry that clause's polarity.
const polarDensity = 0.55

type clausePolarity uint8

const (
	clauseNeutral clausePolarity = iota
	clausePositive
	clauseNegative
)

// Comment generates one comment in the given style.
func (g *Generator) Comment(st Style) string {
	g.buf = g.AppendComment(g.buf[:0], st)
	return string(g.buf)
}

// AppendComment generates one comment in the given style, appends it
// to dst and returns the extended slice. It is the one comment kernel:
// Comment wraps it, and a caller building many comments appends them
// into one buffer of its own. Its only allocation is dst's growth.
func (g *Generator) AppendComment(dst []byte, st Style) []byte {
	used := g.used[:0]
	// Clause polarity probabilities chosen so word-level rates match
	// the style's PositiveRate/NegativeRate.
	pPos := clamp01(st.PositiveRate / polarDensity)
	pNeg := clamp01(st.NegativeRate / polarDensity)
	if pPos+pNeg > 1 {
		scale := 1 / (pPos + pNeg)
		pPos *= scale
		pNeg *= scale
	}
	clauses := g.between(st.ClausesMin, st.ClausesMax)
	for c := 0; c < clauses; c++ {
		pol := clauseNeutral
		switch r := g.rng.Float64(); {
		case c == 0 && g.rng.Float64() < st.LeadVerdict:
			pol = clausePositive
			if pNeg > pPos {
				pol = clauseNegative
			}
		case r < pPos:
			pol = clausePositive
		case r < pPos+pNeg:
			pol = clauseNegative
		}
		words := g.between(st.WordsMin, st.WordsMax)
		for w := 0; w < words; w++ {
			word := g.pickWord(st, pol, used)
			used = append(used, word)
			dst = append(dst, word...)
			if g.rng.Float64() < st.ExtraPunctRate {
				dst = append(dst, innerPunct[g.rng.Intn(len(innerPunct))]...)
			}
		}
		if g.rng.Float64() < st.ExclamationRate {
			dst = append(dst, exclaimEnders[g.rng.Intn(len(exclaimEnders))]...)
		} else {
			dst = append(dst, clauseEnders[g.rng.Intn(len(clauseEnders))]...)
		}
	}
	g.used = used
	return dst
}

func (g *Generator) pickWord(st Style, pol clausePolarity, used []string) string {
	if len(used) > 0 && g.rng.Float64() < st.DuplicateRate {
		return used[g.rng.Intn(len(used))]
	}
	if r := g.rng.Float64(); r < polarDensity {
		switch pol {
		case clausePositive:
			w := g.bank.Positive[g.zipf(len(g.bank.Positive))]
			if vars, ok := g.bank.Homographs[w]; ok && g.rng.Float64() < st.HomographRate {
				return vars[g.rng.Intn(len(vars))]
			}
			return w
		case clauseNegative:
			return g.bank.Negative[g.zipf(len(g.bank.Negative))]
		}
	}
	// Neutral filler: topic nouns with function-word glue.
	if g.rng.Float64() < 0.55 {
		if len(g.extraNeutral) > 0 && g.rng.Float64() < g.extraRate {
			return g.extraNeutral[g.rng.Intn(len(g.extraNeutral))]
		}
		return g.bank.Neutral[g.zipf(len(g.bank.Neutral))]
	}
	return g.bank.Function[g.rng.Intn(len(g.bank.Function))]
}

// zipf draws an index in [0, n) biased quadratically toward 0. Bank
// lists put the common, paper-sourced words first, so this gives the
// head words the high frequencies real comment vocabularies show
// (不错/很好 dominating the word clouds of Figs 8/9) while the
// synthesized tail stays in circulation.
func (g *Generator) zipf(n int) int {
	r := g.rng.Float64()
	return int(r * r * float64(n))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func (g *Generator) between(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

// PolarComment generates a comment with an unambiguous polarity, for
// training the sentiment model (the stand-in for SnowNLP's pre-trained
// e-commerce corpus).
func (g *Generator) PolarComment(positive bool) string {
	if positive {
		st := NormalStyle()
		st.PositiveRate = 0.35
		st.NegativeRate = 0
		return g.Comment(st)
	}
	return g.Comment(NegativeStyle())
}

var itemNouns = []string{
	"扫码枪", "连衣裙", "运动鞋", "牛仔裤", "蓝牙耳机", "保温杯", "充电宝",
	"键盘", "鼠标", "台灯", "背包", "手表", "风衣", "卫衣", "毛衣", "衬衫",
	"板鞋", "凉鞋", "雨伞", "水壶", "炒锅", "菜刀", "砧板", "床单", "枕头",
	"毛巾", "牙刷", "洗面奶", "面膜", "口红", "零食", "坚果", "茶叶", "咖啡",
}

var itemAdj = []string{
	"新款", "经典", "热卖", "爆款", "限量", "加厚", "轻薄", "升级版",
	"豪华", "简约", "复古", "时尚", "便携", "家用", "商用", "户外",
}

// ItemName generates a plausible listing title.
func (g *Generator) ItemName() string {
	return itemAdj[g.rng.Intn(len(itemAdj))] + itemNouns[g.rng.Intn(len(itemNouns))]
}

var shopPrefix = []string{"旺旺", "天天", "优品", "潮流", "云端", "金牌", "诚信", "阳光", "小鹿", "大象"}
var shopSuffix = []string{"旗舰店", "专营店", "工厂店", "精品店", "折扣店", "优选店"}

// ShopName generates a plausible shop name.
func (g *Generator) ShopName() string {
	return shopPrefix[g.rng.Intn(len(shopPrefix))] + shopSuffix[g.rng.Intn(len(shopSuffix))]
}

var nickRunes = []rune("莉莓鱼壳猫狗虎兔龙蛇马羊猴鸡云山水火风花草木")

// Nickname generates an anonymized nickname in the platform's masked
// style, e.g. "0***莉" (Table VII).
func (g *Generator) Nickname() string {
	lead := rune('0' + g.rng.Intn(10))
	if g.rng.Intn(2) == 0 {
		lead = nickRunes[g.rng.Intn(len(nickRunes))]
	}
	tail := nickRunes[g.rng.Intn(len(nickRunes))]
	var nick [3 + 2*utf8.UTFMax]byte
	return string(utf8.AppendRune(append(utf8.AppendRune(nick[:0], lead), "***"...), tail))
}
