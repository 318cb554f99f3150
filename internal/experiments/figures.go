package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ecom"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/stats"
)

// DistributionResult holds one Fig 1–5 style fraud-vs-normal comment
// distribution: histograms over a fixed axis plus the KS separation.
type DistributionResult struct {
	Figure  string
	Measure string
	Lo, Hi  float64
	Bins    int
	Fraud   *stats.Histogram
	Normal  *stats.Histogram
	// KS is the two-sample Kolmogorov–Smirnov distance between the
	// fraud and normal samples: the quantitative version of "the
	// distributions differ".
	KS          float64
	FraudCount  int
	NormalCount int
}

// String prints the figure reproduction: modes, KS, and a small ASCII
// density plot.
func (r *DistributionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig %s — %s distribution (fraud n=%d, normal n=%d, KS=%.3f)\n",
		r.Figure, r.Measure, r.FraudCount, r.NormalCount, r.KS)
	fmt.Fprintf(&b, "  fraud mode ≈ %.3g, normal mode ≈ %.3g\n", r.Fraud.Mode(), r.Normal.Mode())
	b.WriteString(indent(stats.Render([]string{"fraud", "normal"}, []*stats.Histogram{r.Fraud, r.Normal}, 40), "  "))
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// commentMeasure extracts one scalar per comment over a set of items.
type commentMeasure func(features.CommentStructure) float64

// perComment applies f to the structure of every comment of items.
func perComment(ex *features.Extractor, items []*ecom.Item, f commentMeasure) []float64 {
	var out []float64
	for _, it := range items {
		for i := range it.Comments {
			out = append(out, f(ex.CommentStructure(it.Comments[i].Content)))
		}
	}
	return out
}

func sentimentOf(cs features.CommentStructure) float64 { return cs.Sentiment }

// commentDistribution samples per-comment structure measurements for
// D1's fraud and normal items.
func (l *Lab) commentDistribution(figure, name string, lo, hi float64, bins int, f commentMeasure) (fmt.Stringer, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	ex := det.Extractor()
	fraud, normal := sampleSplit(l.D1(), l.cfg.SampleItems)
	fv, nv := perComment(ex, fraud, f), perComment(ex, normal, f)
	return &DistributionResult{
		Figure: figure, Measure: name, Lo: lo, Hi: hi, Bins: bins,
		Fraud:  stats.NewHistogram(fv, lo, hi, bins),
		Normal: stats.NewHistogram(nv, lo, hi, bins),
		KS:     stats.KS(fv, nv), FraudCount: len(fv), NormalCount: len(nv),
	}, nil
}

// Fig1 reproduces the comment sentiment distribution (axis [0,1]).
func (l *Lab) Fig1(context.Context) (fmt.Stringer, error) {
	return l.commentDistribution("1", "comment sentiment", 0, 1, 20, sentimentOf)
}

// Fig2 reproduces the punctuation-count distribution (axis [0,50]).
func (l *Lab) Fig2(context.Context) (fmt.Stringer, error) {
	return l.commentDistribution("2", "punctuation count", 0, 50, 25,
		func(cs features.CommentStructure) float64 { return float64(cs.PunctCount) })
}

// Fig3 reproduces the comment entropy distribution (axis [0,8]).
func (l *Lab) Fig3(context.Context) (fmt.Stringer, error) {
	return l.commentDistribution("3", "comment entropy", 0, 8, 16,
		func(cs features.CommentStructure) float64 { return cs.Entropy })
}

// Fig4 reproduces the comment length distribution (axis [0,300]).
func (l *Lab) Fig4(context.Context) (fmt.Stringer, error) {
	return l.commentDistribution("4", "comment length", 0, 300, 30,
		func(cs features.CommentStructure) float64 { return float64(cs.RuneLength) })
}

// Fig5 reproduces the unique-word-ratio distribution (axis [0,1]).
func (l *Lab) Fig5(context.Context) (fmt.Stringer, error) {
	return l.commentDistribution("5", "unique word ratio", 0, 1, 20,
		func(cs features.CommentStructure) float64 { return cs.UniqueWordRatio })
}

// Fig7Result is the detector's feature importance (split counts).
type Fig7Result struct {
	Importance []gbt.Importance
}

// Fig7 trains the boosted-tree detector on D0 and reads its
// split-count importance.
func (l *Lab) Fig7(context.Context) (fmt.Stringer, error) {
	det, err := l.System()
	if err != nil {
		return nil, err
	}
	imp, err := det.Model().FeatureImportance()
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Importance: imp}, nil
}

// String prints the Fig 7 reproduction as a bar list.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 7 — feature importance (split counts)\n")
	max := 1
	if len(r.Importance) > 0 && r.Importance[0].Splits > 0 {
		max = r.Importance[0].Splits
	}
	for _, e := range r.Importance {
		bar := strings.Repeat("#", e.Splits*40/max)
		fmt.Fprintf(&b, "  %-32s %5d |%s\n", e.Feature, e.Splits, bar)
	}
	return b.String()
}

// WordCloudResult reproduces Figs 8/9 and Appendix Tables VIII/IX: the
// top-k most frequent words in fraud and normal items' comments on both
// platforms, plus the share of the top-50 that are positive words.
type WordCloudResult struct {
	TopK int
	// Platform → class → ranked words.
	FraudTaobao, FraudEPlat   []stats.WordCount
	NormalTaobao, NormalEPlat []stats.WordCount
	// PositiveShare: fraction of top-k fraud words that are positive
	// (the paper: the top-50 fraud words are positive words occupying
	// ~28% of the total).
	PositiveShareTaobao, PositiveShareEPlat float64
	// NormalHasNegatives reports whether negative words appear among
	// the normal items' frequent words (没用/不好 in Fig 9).
	NormalHasNegTaobao, NormalHasNegEPlat bool
	// Jaccard is the overlap of the two platforms' fraud top-k sets —
	// "the word distribution ... is almost the same".
	Jaccard float64
}

// Fig8 prints the word-cloud analysis.
func (l *Lab) Fig8(context.Context) (fmt.Stringer, error) { return l.wordClouds(), nil }

// wordClouds runs the word-cloud analysis over D1 (Taobao) and the
// E-platform universe.
func (l *Lab) wordClouds() *WordCloudResult {
	const topK = 50
	seg := l.Segmenter()
	bank := l.Bank()
	// Connective/function words are excluded, as word-cloud analyses
	// conventionally do (the paper's Appendix lists contain content
	// words only).
	stop := map[string]bool{}
	for _, w := range bank.Function {
		stop[w] = true
	}
	counts := func(items []*ecom.Item) map[string]int {
		m := map[string]int{}
		for _, it := range items {
			for i := range it.Comments {
				for _, w := range seg.Words(it.Comments[i].Content) {
					if !stop[w] {
						m[w]++
					}
				}
			}
		}
		return m
	}
	ft, nt := sampleSplit(l.D1(), l.cfg.SampleItems)
	fe, ne := sampleSplit(l.EPlat(), l.cfg.SampleItems)
	res := &WordCloudResult{
		TopK:         topK,
		FraudTaobao:  stats.TopWords(counts(ft), topK),
		NormalTaobao: stats.TopWords(counts(nt), topK),
		FraudEPlat:   stats.TopWords(counts(fe), topK),
		NormalEPlat:  stats.TopWords(counts(ne), topK),
	}
	posShare := func(ws []stats.WordCount) float64 {
		if len(ws) == 0 {
			return 0
		}
		n := 0
		for _, wc := range ws {
			if bank.IsPositive(wc.Word) {
				n++
			}
		}
		return float64(n) / float64(len(ws))
	}
	hasNeg := func(ws []stats.WordCount) bool {
		for _, wc := range ws {
			if bank.IsNegative(wc.Word) {
				return true
			}
		}
		return false
	}
	res.PositiveShareTaobao = posShare(res.FraudTaobao)
	res.PositiveShareEPlat = posShare(res.FraudEPlat)
	res.NormalHasNegTaobao = hasNeg(res.NormalTaobao)
	res.NormalHasNegEPlat = hasNeg(res.NormalEPlat)

	setT := map[string]bool{}
	for _, wc := range res.FraudTaobao {
		setT[wc.Word] = true
	}
	inter := 0
	for _, wc := range res.FraudEPlat {
		if setT[wc.Word] {
			inter++
		}
	}
	union := len(res.FraudTaobao) + len(res.FraudEPlat) - inter
	if union > 0 {
		res.Jaccard = float64(inter) / float64(union)
	}
	return res
}

// String prints the Figs 8/9 + Appendix reproduction.
func (r *WordCloudResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figs 8/9 + Appendix — top-%d comment words\n", r.TopK)
	fmt.Fprintf(&b, "  fraud/Taobao positive share: %s    fraud/E-platform positive share: %s\n",
		percent(r.PositiveShareTaobao), percent(r.PositiveShareEPlat))
	fmt.Fprintf(&b, "  normal top words contain negatives: Taobao=%v  E-platform=%v\n",
		r.NormalHasNegTaobao, r.NormalHasNegEPlat)
	fmt.Fprintf(&b, "  fraud top-%d cross-platform Jaccard overlap: %.2f\n", r.TopK, r.Jaccard)
	row := func(label string, ws []stats.WordCount) {
		var words []string
		for _, wc := range ws[:min(10, len(ws))] {
			words = append(words, wc.Word)
		}
		fmt.Fprintf(&b, "  %-18s %s\n", label, strings.Join(words, " "))
	}
	row("fraud/Taobao:", r.FraudTaobao)
	row("fraud/E-plat:", r.FraudEPlat)
	row("normal/Taobao:", r.NormalTaobao)
	row("normal/E-plat:", r.NormalEPlat)
	return b.String()
}

// Fig10Result compares comment sentiment distributions across classes
// and platforms (Fig 10): E-platform's detected fraud/normal items
// against Taobao's labeled ones.
type Fig10Result struct {
	FraudEPlat, NormalEPlat   *stats.Histogram
	FraudTaobao, NormalTaobao *stats.Histogram
	// FraudPositiveShare is the fraction of detected-fraud comments
	// with sentiment > 0.5 on E-platform (the paper: > 99.8%).
	FraudPositiveShare float64
	// CrossPlatformKS measures agreement between the two platforms'
	// fraud sentiment distributions (small = agree).
	CrossPlatformKS float64
	// ClassKS measures fraud-vs-normal separation on E-platform.
	ClassKS float64
}

// Fig10 runs CATS on the E-platform universe (at the high-confidence
// reporting threshold) and compares the comment sentiment distributions
// of its *detected* fraud/normal items with Taobao's labeled ones.
func (l *Lab) Fig10(ctx context.Context) (fmt.Stringer, error) {
	det, err := l.EPlatSystem()
	if err != nil {
		return nil, err
	}
	items := l.EPlat().Dataset.Items
	dets, err := det.DetectContext(ctx, items, 0)
	if err != nil {
		return nil, err
	}
	// The first SampleItems items detected as fraud, and as normal.
	var fe, ne []*ecom.Item
	for i := range items {
		if dets[i].IsFraud && len(fe) < l.cfg.SampleItems {
			fe = append(fe, &items[i])
		} else if !dets[i].IsFraud && len(ne) < l.cfg.SampleItems {
			ne = append(ne, &items[i])
		}
	}
	ft, nt := sampleSplit(l.D1(), l.cfg.SampleItems)
	ex := det.Extractor()
	fraudE, normalE := perComment(ex, fe, sentimentOf), perComment(ex, ne, sentimentOf)
	fraudT, normalT := perComment(ex, ft, sentimentOf), perComment(ex, nt, sentimentOf)
	pos := 0
	for _, s := range fraudE {
		if s > 0.5 {
			pos++
		}
	}
	res := &Fig10Result{
		FraudEPlat:      stats.NewHistogram(fraudE, 0, 1, 20),
		NormalEPlat:     stats.NewHistogram(normalE, 0, 1, 20),
		FraudTaobao:     stats.NewHistogram(fraudT, 0, 1, 20),
		NormalTaobao:    stats.NewHistogram(normalT, 0, 1, 20),
		CrossPlatformKS: stats.KS(fraudE, fraudT),
		ClassKS:         stats.KS(fraudE, normalE),
	}
	if len(fraudE) > 0 {
		res.FraudPositiveShare = float64(pos) / float64(len(fraudE))
	}
	return res, nil
}

// String prints the Fig 10 reproduction.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 10 — cross-platform comment sentiment distributions\n")
	fmt.Fprintf(&b, "  detected-fraud comments positive on E-platform: %.1f%% (paper: >99.8%%)\n", r.FraudPositiveShare*100)
	fmt.Fprintf(&b, "  fraud sentiment KS(E-platform vs Taobao) = %.3f (small = platforms agree)\n", r.CrossPlatformKS)
	fmt.Fprintf(&b, "  fraud-vs-normal sentiment KS on E-platform = %.3f (large = classes separate)\n", r.ClassKS)
	fmt.Fprintf(&b, "  modes: fraud E=%.2f T=%.2f, normal E=%.2f T=%.2f\n",
		r.FraudEPlat.Mode(), r.FraudTaobao.Mode(), r.NormalEPlat.Mode(), r.NormalTaobao.Mode())
	return b.String()
}

// Fig13Feature is one feature's cross-platform distribution comparison.
type Fig13Feature struct {
	Name string
	// ClassKS is the fraud-vs-normal separation on E-platform,
	// TaobaoClassKS the same on Taobao (the paper: the class
	// differences look alike on both platforms), and PlatformKS the
	// fraud-fraud agreement across platforms (small = agree).
	ClassKS       float64
	TaobaoClassKS float64
	PlatformKS    float64
}

// Fig13Result compares all 11 feature distributions across classes and
// platforms (Figs 13(a)–(k)).
type Fig13Result struct {
	Features []Fig13Feature
}

// Fig13 computes item-level feature distributions for fraud and normal
// items on both platforms and reports the KS comparisons the paper
// reads off its subplots.
func (l *Lab) Fig13(context.Context) (fmt.Stringer, error) {
	det, err := l.detectorForFeatures()
	if err != nil {
		return nil, err
	}
	vectors := func(items []*ecom.Item) [][]float64 {
		out := make([][]float64, len(items))
		for i, it := range items {
			out[i] = det.Extractor().Vector(it)
		}
		return out
	}
	ft, nt := sampleSplit(l.D1(), l.cfg.SampleItems)
	fe, ne := sampleSplit(l.EPlat(), l.cfg.SampleItems)
	vft, vnt, vfe, vne := vectors(ft), vectors(nt), vectors(fe), vectors(ne)
	column := func(vs [][]float64, j int) []float64 {
		out := make([]float64, len(vs))
		for i := range vs {
			out[i] = vs[i][j]
		}
		return out
	}
	res := &Fig13Result{}
	for j, name := range features.Names {
		res.Features = append(res.Features, Fig13Feature{
			Name:          name,
			ClassKS:       stats.KS(column(vfe, j), column(vne, j)),
			TaobaoClassKS: stats.KS(column(vft, j), column(vnt, j)),
			PlatformKS:    stats.KS(column(vfe, j), column(vft, j)),
		})
	}
	return res, nil
}

// String prints the Fig 13 reproduction.
func (r *Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 13 — feature distributions: class separation vs platform agreement (KS)\n")
	fmt.Fprintf(&b, "  %-32s %-20s %-20s %-20s\n", "feature", "fraud-vs-normal (E)", "fraud-vs-normal (T)", "fraud: E vs T")
	for _, f := range r.Features {
		fmt.Fprintf(&b, "  %-32s %-20.3f %-20.3f %-20.3f\n", f.Name, f.ClassKS, f.TaobaoClassKS, f.PlatformKS)
	}
	return b.String()
}
