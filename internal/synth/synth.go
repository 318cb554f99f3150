// Package synth generates the synthetic e-commerce universes that stand
// in for the paper's proprietary datasets: the labeled Taobao training
// set D0 (Table IV), the large labeled Taobao evaluation set D1
// (Table V), and the E-platform crawl (Section IV-A).
//
// The generator is calibrated to the population structure the paper
// reports rather than to any real platform's data:
//
//   - fraud items receive mostly promotion-campaign comments (long,
//     positive-saturated, punctuation-heavy, duplicate-rich) with a
//     minority of organic ones, normal items the reverse (Figs 1–5);
//   - a user pool where overall only ~20% of accounts sit below
//     userExpValue 2,000, but fraud purchases are made predominantly by
//     a low-value "risky" sub-population (45% below 2,000, 39% below
//     1,000, 15% at the floor of 100 — Fig 11);
//   - risky users form collusion rings that repeatedly co-purchase the
//     same fraud items, reproducing the repeat-purchase and
//     co-purchase-pair structure of the paper's measurement study;
//   - fraud orders arrive mostly via the web client, normal orders
//     mostly via Android (Fig 12).
//
// Everything is deterministic given Config.Seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/ecom"
	"repro/internal/textgen"
)

// Config sizes and seeds a synthetic universe.
type Config struct {
	// Name labels the dataset (e.g. "D0", "D1", "E-platform").
	Name string
	// Platform tags item/shop identifiers so cross-platform ids never
	// collide.
	Platform string
	// Seed drives all randomness.
	Seed int64

	// Item population.
	FraudEvidence int // fraud items labeled with hard evidence
	FraudManual   int // fraud items labeled by manual analysis
	Normal        int // normal items

	// Shops to spread items across.
	Shops int

	// Comment volume per item (uniform in [Min, Max]).
	FraudCommentsMin, FraudCommentsMax   int
	NormalCommentsMin, NormalCommentsMax int

	// OrganicFraudShare is the fraction of a fraud item's comments that
	// come from genuine buyers rather than the campaign.
	OrganicFraudShare float64
	// NegativeNormalShare is the fraction of a normal item's comments
	// drawn from the unhappy-review style.
	NegativeNormalShare float64

	// User pool sizes. RiskyUsers is the hired-promoter population that
	// collusion rings draw from.
	OrganicUsers int
	RiskyUsers   int

	// LowVolumeShare is the fraction of normal items given sales volume
	// under 5, which the detector's rule filter removes.
	LowVolumeShare float64

	// SubtleFraud is the fraction of fraud items running a cautious
	// campaign (shorter, less saturated comments), DeepCoverFraud the
	// fraction whose campaign mimics organic enthusiasm outright
	// (recall ceiling — the paper misses ~10% of fraud items), and
	// EnthusiasticNormal the fraction of normal items with gushing
	// organic reviews (false-positive pressure). Together they blur
	// the class margin so detector metrics land in the paper's
	// 0.83–0.92 band rather than a degenerate 1.00. Negative values
	// disable each mixture.
	SubtleFraud        float64
	DeepCoverFraud     float64
	EnthusiasticNormal float64

	// StyleJitter perturbs the generative style rates by up to this
	// relative amount, modeling platform-to-platform drift. The
	// cross-platform experiments give E-platform a nonzero jitter so
	// the detector is tested off its training distribution.
	StyleJitter float64

	// VocabShift is the fraction of neutral word slots drawn from a
	// platform-specific vocabulary pool unknown to the shared bank
	// (and hence to the trained segmenter and lexicons). It models
	// product-vocabulary divergence between platforms; the robustness
	// sweep measures detection quality as it grows.
	VocabShift float64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "synthetic"
	}
	if c.Platform == "" {
		c.Platform = "P"
	}
	if c.Shops <= 0 {
		c.Shops = 1 + (c.FraudEvidence+c.FraudManual+c.Normal)/100
	}
	if c.FraudCommentsMax <= 0 {
		c.FraudCommentsMin, c.FraudCommentsMax = 8, 20
	}
	if c.NormalCommentsMin <= 0 && c.NormalCommentsMax <= 0 {
		c.NormalCommentsMin, c.NormalCommentsMax = 3, 18
	}
	if c.OrganicFraudShare == 0 {
		c.OrganicFraudShare = 0.15
	}
	if c.NegativeNormalShare == 0 {
		c.NegativeNormalShare = 0.15
	}
	if c.OrganicUsers <= 0 {
		c.OrganicUsers = 2000 + 2*(c.FraudEvidence+c.FraudManual+c.Normal)
	}
	if c.RiskyUsers <= 0 {
		// Sized so rings promote several fraud items each: that reuse
		// is what creates the repeat-purchase and co-purchase-pair
		// structure of the paper's measurement study.
		c.RiskyUsers = 50 + (c.FraudEvidence+c.FraudManual)/5
	}
	if c.LowVolumeShare == 0 {
		c.LowVolumeShare = 0.05
	}
	if c.SubtleFraud == 0 {
		c.SubtleFraud = 0.3
	} else if c.SubtleFraud < 0 {
		c.SubtleFraud = 0
	}
	if c.DeepCoverFraud == 0 {
		c.DeepCoverFraud = 0.1
	} else if c.DeepCoverFraud < 0 {
		c.DeepCoverFraud = 0
	}
	if c.EnthusiasticNormal == 0 {
		c.EnthusiasticNormal = 0.04
	} else if c.EnthusiasticNormal < 0 {
		c.EnthusiasticNormal = 0
	}
	return c
}

// Scale returns a copy of cfg with item and user counts multiplied by
// f (minimum 1 item per nonzero class).
func (c Config) Scale(f float64) Config {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		s := int(math.Round(float64(n) * f))
		if s < 1 {
			s = 1
		}
		return s
	}
	c.FraudEvidence = scale(c.FraudEvidence)
	c.FraudManual = scale(c.FraudManual)
	c.Normal = scale(c.Normal)
	c.Shops = scale(c.Shops)
	c.OrganicUsers = scale(c.OrganicUsers)
	c.RiskyUsers = scale(c.RiskyUsers)
	return c
}

// D0Config reproduces Table IV's training set shape: 14,000 fraud and
// 20,000 normal items with ~474,000 comments (≈14 comments/item).
func D0Config() Config {
	return Config{
		Name: "D0", Platform: "taobao", Seed: 7001,
		FraudEvidence: 12000, FraudManual: 2000, Normal: 20000,
		Shops:            800,
		FraudCommentsMin: 8, FraudCommentsMax: 20,
		NormalCommentsMin: 6, NormalCommentsMax: 20,
		// A curated ground-truth set over-samples the hard negatives
		// (popular items whose organic reviews gush); the extra
		// examples teach the classifier to keep precision on them.
		EnthusiasticNormal: 0.12,
	}
}

// D1Config reproduces Table V's evaluation set shape: 18,682 fraud
// (16,782 evidence + 1,900 manual) and 1,461,452 normal items from
// 15,992 shops with 72.3M comments. Run it through Scale — the full
// size needs ~72M generated comments.
func D1Config() Config {
	return Config{
		Name: "D1", Platform: "taobao", Seed: 7002,
		FraudEvidence: 16782, FraudManual: 1900, Normal: 1461452,
		Shops:            15992,
		FraudCommentsMin: 10, FraudCommentsMax: 40,
		NormalCommentsMin: 6, NormalCommentsMax: 60,
	}
}

// EPlatformConfig models the second platform's crawl: ~4.5M items and
// 100M+ comments, of which CATS reported 10,720 fraud. Run it through
// Scale. StyleJitter shifts the comment distributions off Taobao's.
func EPlatformConfig() Config {
	return Config{
		Name: "E-platform", Platform: "eplat", Seed: 7003,
		FraudEvidence: 11000, FraudManual: 0, Normal: 4489000,
		Shops:            30000,
		FraudCommentsMin: 8, FraudCommentsMax: 30,
		NormalCommentsMin: 6, NormalCommentsMax: 40,
		StyleJitter: 0.12,
		// Campaigns on this platform are less sophisticated and its
		// catalog has fewer campaign-like organic items: the paper's
		// 0.96 audit precision at ~0.24% fraud prevalence implies a
		// near-zero false-positive rate, which is only consistent
		// with blatant fraud and rare hard negatives.
		SubtleFraud:        0.15,
		DeepCoverFraud:     0.05,
		EnthusiasticNormal: 0.015,
	}
}

// Universe is a generated dataset together with its user pool and the
// word bank that produced it.
type Universe struct {
	Config  Config
	Dataset ecom.Dataset
	// Users is the full account pool (organic then risky).
	Users []ecom.User
	// RiskyUserIDs indexes the hired-promoter accounts.
	RiskyUserIDs map[string]bool
	// Rings lists the ground-truth collusion rings as user-id sets —
	// the partition fraud items draw their promoters from. Carried on
	// the universe so graph-layer cluster recovery is measurable.
	Rings []map[string]bool
	Bank  *textgen.Bank
}

// pools is the shared population a universe's items draw from: the
// user accounts, collusion rings, and shops. Building it consumes a
// deterministic prefix of the RNG stream, so Generate and Stream start
// item generation from identical state.
type pools struct {
	users    []ecom.User
	riskyIDs map[string]bool
	organic  []ecom.User
	risky    []ecom.User
	rings    [][]int
	shops    []ecom.Shop
}

// buildPools draws the user, ring, and shop populations. The RNG call
// order here is pinned by golden fixtures — do not reorder.
func buildPools(cfg Config, rng *rand.Rand, gen *textgen.Generator) *pools {
	p := &pools{riskyIDs: map[string]bool{}}

	// User pool: organic users' expValue is log-normal above the floor
	// (few low-value accounts); risky users cluster at the bottom with
	// a 15% mass exactly at the floor of 100.
	p.users = make([]ecom.User, 0, cfg.OrganicUsers+cfg.RiskyUsers)
	for i := 0; i < cfg.OrganicUsers; i++ {
		p.users = append(p.users, ecom.User{
			ID:       paddedID(cfg.Platform+"-u", i, 7),
			Nickname: gen.Nickname(),
			ExpValue: organicExpValue(rng),
		})
	}
	for i := 0; i < cfg.RiskyUsers; i++ {
		id := paddedID(cfg.Platform+"-r", i, 7)
		p.users = append(p.users, ecom.User{
			ID:       id,
			Nickname: gen.Nickname(),
			ExpValue: riskyExpValue(rng),
		})
		p.riskyIDs[id] = true
	}
	p.organic = p.users[:cfg.OrganicUsers]
	p.risky = p.users[cfg.OrganicUsers:]

	// Collusion rings: partition risky users into small rings; each
	// fraud item is promoted by one ring, so ring members co-purchase
	// many of the same items (the paper's 83,745 pairs / 1,056 users).
	p.rings = buildRings(len(p.risky), rng)

	p.shops = make([]ecom.Shop, cfg.Shops)
	for i := range p.shops {
		p.shops[i] = ecom.Shop{
			ID:   paddedID(cfg.Platform+"-s", i, 5),
			Name: gen.ShopName(),
			URL:  fmt.Sprintf("https://%s.example.com/shop/%d", cfg.Platform, i),
		}
	}
	return p
}

// itemGen is the generation state Generate and Stream share: the
// seeded RNG, the comment generator drawing from it, the populations
// built from its prefix, and the per-item comment text builder.
type itemGen struct {
	cfg  Config
	rng  *rand.Rand
	gen  *textgen.Generator
	p    *pools
	text commentText
}

// newItemGen seeds the RNG and builds the populations; cfg has its
// defaults applied.
func newItemGen(cfg Config) *itemGen {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := textgen.NewGenerator(textgen.NewBank(), rng)
	if cfg.VocabShift > 0 {
		gen.SetExtraNeutral(textgen.PlatformNeutralPool(cfg.Seed, 300), cfg.VocabShift)
	}
	return &itemGen{cfg: cfg, rng: rng, gen: gen, p: buildPools(cfg, rng, gen)}
}

// item draws one labeled item with its comments.
func (g *itemGen) item(seq int, label ecom.Label) ecom.Item {
	item := ecom.Item{
		ID:         paddedID(g.cfg.Platform+"-i", seq, 9),
		ShopID:     g.p.shops[g.rng.Intn(len(g.p.shops))].ID,
		Name:       g.gen.ItemName(),
		Category:   ecom.Categories[g.rng.Intn(len(ecom.Categories))],
		PriceCents: 500 + int64(g.rng.Intn(200000)),
		Label:      label,
	}
	if label.IsFraud() {
		g.fillFraudItem(&item)
	} else {
		g.fillNormalItem(&item)
	}
	return item
}

// Generate builds a universe. The same Config always yields the same
// universe.
func Generate(cfg Config) *Universe {
	cfg = cfg.withDefaults()
	g := newItemGen(cfg)
	p := g.p

	u := &Universe{Config: cfg, Bank: g.gen.Bank()}
	u.Dataset.Name = cfg.Name
	u.Users = p.users
	u.RiskyUserIDs = p.riskyIDs
	// Ground-truth ring ids, derived from the pools without touching
	// the RNG (the draw order above is pinned by golden fixtures).
	for _, ring := range p.rings {
		ids := make(map[string]bool, len(ring))
		for _, ri := range ring {
			ids[p.risky[ri].ID] = true
		}
		u.Rings = append(u.Rings, ids)
	}

	total := cfg.FraudEvidence + cfg.FraudManual + cfg.Normal
	u.Dataset.Items = make([]ecom.Item, 0, total)
	itemSeq := 0
	addItem := func(label ecom.Label) {
		u.Dataset.Items = append(u.Dataset.Items, g.item(itemSeq, label))
		itemSeq++
	}
	for i := 0; i < cfg.FraudEvidence; i++ {
		addItem(ecom.FraudEvidence)
	}
	for i := 0; i < cfg.FraudManual; i++ {
		addItem(ecom.FraudManual)
	}
	for i := 0; i < cfg.Normal; i++ {
		addItem(ecom.Normal)
	}
	// Shuffle so label order carries no information.
	g.rng.Shuffle(len(u.Dataset.Items), func(i, j int) {
		u.Dataset.Items[i], u.Dataset.Items[j] = u.Dataset.Items[j], u.Dataset.Items[i]
	})
	return u
}

// buildRings partitions risky-user indices into rings of 4–12.
func buildRings(n int, rng *rand.Rand) [][]int {
	perm := rng.Perm(n)
	var rings [][]int
	for i := 0; i < n; {
		size := 4 + rng.Intn(9)
		if i+size > n {
			size = n - i
		}
		rings = append(rings, perm[i:i+size])
		i += size
	}
	return rings
}

func (g *itemGen) fillFraudItem(item *ecom.Item) {
	cfg, rng, p := &g.cfg, g.rng, g.p
	n := between(rng, cfg.FraudCommentsMin, cfg.FraudCommentsMax)
	item.SalesVolume = n + rng.Intn(3*n+1)
	campaign := textgen.FraudStyle()
	organicShare := cfg.OrganicFraudShare
	switch r := rng.Float64(); {
	case r < cfg.DeepCoverFraud:
		// Full mimicry: the campaign writes like delighted organic
		// buyers. Text features alone cannot separate these — the
		// recall ceiling the paper's 0.90–0.92 reflects.
		campaign = textgen.EnthusiasticStyle()
		n = between(rng, cfg.FraudCommentsMin, (cfg.FraudCommentsMin+cfg.FraudCommentsMax)/2)
		organicShare = 0.5
	case r < cfg.DeepCoverFraud+cfg.SubtleFraud:
		// A cautious campaign: milder comments, and more genuine
		// buyers diluting the signal.
		campaign = textgen.SubtleFraudStyle()
		n = between(rng, cfg.FraudCommentsMin, (cfg.FraudCommentsMin+cfg.FraudCommentsMax)/2)
		organicShare = 2 * organicShare
	}
	fraudStyle := jitterStyle(campaign, cfg.StyleJitter, rng)
	normalStyle := jitterStyle(textgen.NormalStyle(), cfg.StyleJitter, rng)
	var ring []int
	if len(p.rings) > 0 {
		ring = p.rings[rng.Intn(len(p.rings))]
	}
	base := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	item.Comments = newComments(n)
	for j := range item.Comments {
		cm := &item.Comments[j]
		var user ecom.User
		if rng.Float64() < organicShare || len(ring) == 0 {
			user = p.organic[rng.Intn(len(p.organic))]
			g.text.content(g.gen, normalStyle)
			cm.Client = organicClient(rng)
		} else {
			user = p.risky[ring[rng.Intn(len(ring))]]
			g.text.content(g.gen, fraudStyle)
			cm.Client = fraudClient(rng)
		}
		cm.UserID, cm.Nick, cm.ExpVal = user.ID, user.Nickname, user.ExpValue
		// Campaign comments bunch together in time.
		cm.Date = base.Add(time.Duration(rng.Intn(14*24)) * time.Hour)
	}
	g.text.finish(item.ID, item.Comments)
}

func (g *itemGen) fillNormalItem(item *ecom.Item) {
	cfg, rng, organic := &g.cfg, g.rng, g.p.organic
	n := between(rng, cfg.NormalCommentsMin, cfg.NormalCommentsMax)
	if rng.Float64() < cfg.LowVolumeShare {
		item.SalesVolume = rng.Intn(5) // below the rule-filter cutoff
		if item.SalesVolume < n {
			n = item.SalesVolume
		}
	} else {
		item.SalesVolume = n + rng.Intn(10*n+1)
	}
	base := textgen.NormalStyle()
	if rng.Float64() < cfg.EnthusiasticNormal {
		// A genuinely loved item: organic reviews gush like a campaign.
		base = textgen.EnthusiasticStyle()
		n += n / 2
	}
	posStyle := jitterStyle(base, cfg.StyleJitter, rng)
	negStyle := jitterStyle(textgen.MixedStyle(), cfg.StyleJitter, rng)
	baseDate := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	item.Comments = newComments(n)
	for j := range item.Comments {
		cm := &item.Comments[j]
		user := organic[rng.Intn(len(organic))]
		st := posStyle
		if rng.Float64() < cfg.NegativeNormalShare {
			st = negStyle
		}
		g.text.content(g.gen, st)
		cm.UserID, cm.Nick, cm.ExpVal = user.ID, user.Nickname, user.ExpValue
		cm.Client = organicClient(rng)
		// Organic comments spread over months.
		cm.Date = baseDate.Add(time.Duration(rng.Intn(180*24)) * time.Hour)
	}
	g.text.finish(item.ID, item.Comments)
}

// newComments allocates an item's comments at their final length. An
// item with none keeps a nil slice, which JSONL writes as
// "comments":null.
func newComments(n int) []ecom.Comment {
	if n <= 0 {
		return nil
	}
	return make([]ecom.Comment, n)
}

// commentText builds the strings of one item's comments without a
// string per comment: content appends each comment's text, in order,
// to one byte buffer reused across items; finish appends the comment
// IDs after them, converts the buffer to a string once and slices
// every Content and ID out of it. All of an item's comment strings
// therefore share one backing string — a retained comment pins its
// whole item's text, nothing more.
type commentText struct {
	buf  []byte
	ends []int // where each comment's content, then each ID, ends in buf
}

// content draws the next comment's text in style st. It draws from
// gen's RNG, so it must run at the point of the item's draw sequence
// the comment's text belongs at.
func (t *commentText) content(gen *textgen.Generator, st textgen.Style) {
	t.buf = gen.AppendComment(t.buf, st)
	t.ends = append(t.ends, len(t.buf))
}

// finish names the item's comments — "<itemID>-c0000", "-c0001", … —
// and gives each its ItemID and the Content drawn for it, in the
// order content was called, then resets t for the next item.
func (t *commentText) finish(itemID string, comments []ecom.Comment) {
	for j := range comments {
		t.buf = append(t.buf, itemID...)
		t.buf = append(t.buf, "-c"...)
		t.buf = appendZeroPadded(t.buf, j, 4)
		t.ends = append(t.ends, len(t.buf))
	}
	s := string(t.buf)
	start := 0
	for j := range comments {
		comments[j].Content = s[start:t.ends[j]]
		start = t.ends[j]
	}
	for j := range comments {
		end := t.ends[len(comments)+j]
		comments[j].ID = s[start:end]
		comments[j].ItemID = itemID
		start = end
	}
	t.buf, t.ends = t.buf[:0], t.ends[:0]
}

// paddedID returns prefix followed by v zero-padded to width digits:
// fmt's "<prefix>%0<width>d" in one allocation.
func paddedID(prefix string, v, width int) string {
	var b [48]byte
	return string(appendZeroPadded(append(b[:0], prefix...), v, width))
}

// appendZeroPadded appends v >= 0 in decimal, zero-padded to width
// digits — fmt's %0<width>d — to dst.
func appendZeroPadded(dst []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// organicExpValue draws a log-normal account score: median ≈ 8,000,
// ~20% below 2,000, long tail into the tens of millions (the paper's
// observed max is 27,158,720).
func organicExpValue(rng *rand.Rand) int64 {
	v := math.Exp(9.0 + 1.65*rng.NormFloat64())
	if v < 100 {
		v = 100
	}
	if v > 27158720 {
		v = 27158720
	}
	return int64(v)
}

// riskyExpValue draws a promoter account score: a quarter pinned at the
// floor of 100, the rest log-normal with a low median. After dilution
// by the organic buyers mixed into fraud items' purchases, the unique
// fraud-buyer population lands near the paper's Fig 11 readings (45%
// below 2,000, 39% below 1,000, 15% at the floor).
func riskyExpValue(rng *rand.Rand) int64 {
	if rng.Float64() < 0.25 {
		return 100
	}
	v := math.Exp(6.8 + 1.5*rng.NormFloat64())
	if v < 101 {
		v = 101
	}
	if v > 500000 {
		v = 500000
	}
	return int64(v)
}

// fraudClient draws the order channel of a campaign purchase: mostly
// web (automation-friendly), per Fig 12(a).
func fraudClient(rng *rand.Rand) ecom.Client {
	r := rng.Float64()
	switch {
	case r < 0.62:
		return ecom.ClientWeb
	case r < 0.80:
		return ecom.ClientAndroid
	case r < 0.92:
		return ecom.ClientIPhone
	default:
		return ecom.ClientWechat
	}
}

// organicClient draws the order channel of a genuine purchase: mostly
// mobile apps, per Fig 12(b).
func organicClient(rng *rand.Rand) ecom.Client {
	r := rng.Float64()
	switch {
	case r < 0.12:
		return ecom.ClientWeb
	case r < 0.58:
		return ecom.ClientAndroid
	case r < 0.88:
		return ecom.ClientIPhone
	default:
		return ecom.ClientWechat
	}
}

// jitterStyle perturbs each continuous style rate by a uniform relative
// amount in [-j, +j].
func jitterStyle(st textgen.Style, j float64, rng *rand.Rand) textgen.Style {
	if j == 0 {
		return st
	}
	p := func(x float64) float64 {
		v := x * (1 + (rng.Float64()*2-1)*j)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v
	}
	st.PositiveRate = p(st.PositiveRate)
	st.NegativeRate = p(st.NegativeRate)
	st.DuplicateRate = p(st.DuplicateRate)
	st.ExtraPunctRate = p(st.ExtraPunctRate)
	st.ExclamationRate = p(st.ExclamationRate)
	return st
}

func between(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// PolarCorpus generates n/2 positive and n/2 negative labeled comments
// for training the sentiment model — the substitute for SnowNLP's
// pre-trained e-commerce corpus.
func PolarCorpus(n int, seed int64) (texts []string, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	gen := textgen.NewGenerator(textgen.NewBank(), rng)
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		texts = append(texts, gen.PolarComment(pos))
		if pos {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	return texts, labels
}

// TrainingCorpus generates a flat comment corpus (mixed fraud and
// normal styles) of roughly n comments for word2vec training — the
// substitute for the paper's 70M-comment Taobao corpus.
func TrainingCorpus(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	gen := textgen.NewGenerator(textgen.NewBank(), rng)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%5 == 0:
			out = append(out, gen.Comment(textgen.FraudStyle()))
		case i%5 == 1:
			out = append(out, gen.Comment(textgen.NegativeStyle()))
		case i%11 == 2:
			out = append(out, gen.Comment(textgen.MixedStyle()))
		default:
			out = append(out, gen.Comment(textgen.NormalStyle()))
		}
	}
	return out
}
