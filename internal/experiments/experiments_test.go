package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ecom"
)

// testLab is a shared tiny lab so the suite stays fast; experiments
// must not mutate lab state.
var (
	labOnce sync.Once
	lab     *Lab
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab = NewLab(Config{
			D0Scale:        0.04,  // ~1,360 items
			D1Scale:        0.002, // ~3,000 items, 37 fraud
			EPlatScale:     0.002, // ~9,000 items, 22 fraud
			SampleItems:    60,
			CorpusComments: 6000,
			PolarComments:  1200,
			GraphUsers:     20000,
			GraphEdges:     200000,
			Seed:           1,
		})
	})
	return lab
}

// run executes one experiment on the shared lab and returns its result
// as the concrete type T the assertions read.
func run[T fmt.Stringer](t *testing.T, exp func(*Lab, context.Context) (fmt.Stringer, error)) T {
	t.Helper()
	r, err := exp(testLab(t), context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r.(T)
}

func TestLabCaching(t *testing.T) {
	l := testLab(t)
	if l.D0() != l.D0() || l.Bank() != l.Bank() || l.Segmenter() != l.Segmenter() {
		t.Fatal("lab artifacts not cached")
	}
	a1, err := l.Analyzer()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := l.Analyzer()
	if a1 != a2 {
		t.Fatal("analyzer rebuilt")
	}
}

func TestTable1(t *testing.T) {
	r := run[*Table1Result](t, (*Lab).Table1)
	if len(r.Positive) < 50 || len(r.Positive) > 200 {
		t.Errorf("|P| = %d, want tens to 200", len(r.Positive))
	}
	if r.PositivePrecision < 0.7 {
		t.Errorf("positive lexicon precision %.2f, want >= 0.7", r.PositivePrecision)
	}
	if r.NegativePrecision < 0.7 {
		t.Errorf("negative lexicon precision %.2f, want >= 0.7", r.NegativePrecision)
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("String() missing header")
	}
}

func TestTable3RankingShape(t *testing.T) {
	r := run[*Table3Result](t, (*Lab).Table3)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	byKind := map[string]Table3Row{}
	for _, row := range r.Rows {
		byKind[string(row.Classifier)] = row
		if row.Metrics.Precision == 0 && row.Metrics.Recall == 0 {
			t.Errorf("%s: all-zero metrics", row.Classifier)
		}
	}
	// The paper's headline shape: the boosted-tree model is among the
	// best by F-score.
	xgb := byKind["xgboost"].Metrics.F1
	better := 0
	for _, row := range r.Rows {
		if row.Metrics.F1 > xgb+0.02 {
			better++
		}
	}
	if better > 1 {
		t.Errorf("boosted trees beaten by %d classifiers; Table III shape broken", better)
	}
	if !strings.Contains(r.String(), "Table III") {
		t.Error("String() missing header")
	}
}

func TestTable4And5(t *testing.T) {
	t4 := run[*DatasetStatsResult](t, (*Lab).Table4)
	if t4.Stats.FraudItems == 0 || t4.Stats.NormalItems == 0 {
		t.Fatalf("Table IV stats empty: %+v", t4.Stats)
	}
	t5 := run[*DatasetStatsResult](t, (*Lab).Table5)
	// D1 keeps its heavy imbalance.
	if t5.Stats.FraudItems >= t5.Stats.NormalItems {
		t.Fatalf("D1 should be imbalanced: %+v", t5.Stats)
	}
	if !strings.Contains(t4.String(), "Table IV") || !strings.Contains(t5.String(), "Table V") {
		t.Error("String() missing headers")
	}
}

func TestTable6(t *testing.T) {
	r := run[*Table6Result](t, (*Lab).Table6)
	// Paper shape: both groupings detected with high precision and
	// recall (0.91/0.90 overall at full scale).
	if r.Overall.Precision < 0.6 || r.Overall.Recall < 0.7 {
		t.Errorf("overall %s below paper regime", r.Overall)
	}
	if r.Evidence.Recall < 0.7 {
		t.Errorf("evidence recall %.2f", r.Evidence.Recall)
	}
	if !strings.Contains(r.String(), "Table VI") {
		t.Error("String() missing header")
	}
}

func TestFigs1Through5Separate(t *testing.T) {
	cases := []struct {
		name string
		exp  func(*Lab, context.Context) (fmt.Stringer, error)
		ks   float64
	}{
		{"fig1", (*Lab).Fig1, 0.5},
		{"fig2", (*Lab).Fig2, 0.4},
		{"fig3", (*Lab).Fig3, 0.4},
		{"fig4", (*Lab).Fig4, 0.4},
		{"fig5", (*Lab).Fig5, 0.3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := run[*DistributionResult](t, c.exp)
			if r.KS < c.ks {
				t.Errorf("%s KS = %.3f, want >= %.2f (fraud/normal must separate)", c.name, r.KS, c.ks)
			}
			if r.FraudCount == 0 || r.NormalCount == 0 {
				t.Error("empty sample")
			}
			if r.String() == "" {
				t.Error("empty String()")
			}
		})
	}
}

func TestFig1Modes(t *testing.T) {
	r := run[*DistributionResult](t, (*Lab).Fig1)
	// Fig 1: fraud sentiment concentrates near 1, normal near 0.7.
	if r.Fraud.Mode() < 0.85 {
		t.Errorf("fraud sentiment mode %.2f, want near 1", r.Fraud.Mode())
	}
	if r.Normal.Mode() < 0.5 || r.Normal.Mode() > 0.9 {
		t.Errorf("normal sentiment mode %.2f, want ≈0.7", r.Normal.Mode())
	}
}

func TestFig7(t *testing.T) {
	r := run[*Fig7Result](t, (*Lab).Fig7)
	if len(r.Importance) != 11 {
		t.Fatalf("importance entries = %d", len(r.Importance))
	}
	nonZero := 0
	for _, e := range r.Importance {
		if e.Splits > 0 {
			nonZero++
		}
	}
	// "All of the extracted features are important to our classifier."
	if nonZero < 8 {
		t.Errorf("only %d/11 features used", nonZero)
	}
	if !strings.Contains(r.String(), "Fig 7") {
		t.Error("String() missing header")
	}
}

func TestFig8WordClouds(t *testing.T) {
	r := run[*WordCloudResult](t, (*Lab).Fig8)
	// Fraud top words dominated by positive words on both platforms.
	if r.PositiveShareTaobao < 0.4 || r.PositiveShareEPlat < 0.4 {
		t.Errorf("fraud positive shares %.2f/%.2f, want high", r.PositiveShareTaobao, r.PositiveShareEPlat)
	}
	// Normal items' frequent words include negatives (没用/不好).
	if !r.NormalHasNegTaobao || !r.NormalHasNegEPlat {
		t.Error("normal top words should contain negative words")
	}
	// Cross-platform fraud vocabularies overlap substantially.
	if r.Jaccard < 0.4 {
		t.Errorf("cross-platform fraud word Jaccard %.2f, want >= 0.4", r.Jaccard)
	}
}

func TestFig10(t *testing.T) {
	r := run[*Fig10Result](t, (*Lab).Fig10)
	if r.FraudPositiveShare < 0.9 {
		t.Errorf("detected-fraud positive share %.3f, want >= 0.9 (paper >99.8%%)", r.FraudPositiveShare)
	}
	if r.CrossPlatformKS > 0.35 {
		t.Errorf("cross-platform fraud KS %.3f, want small", r.CrossPlatformKS)
	}
	if r.ClassKS < 0.4 {
		t.Errorf("class KS %.3f, want large", r.ClassKS)
	}
}

func TestFig11(t *testing.T) {
	r := run[*Fig11Result](t, (*Lab).Fig11)
	if r.FraudBelow2000 <= r.NormalBelow2000 {
		t.Errorf("fraud buyers below 2000 (%.2f) should exceed normal (%.2f)", r.FraudBelow2000, r.NormalBelow2000)
	}
	if r.FraudBelow2000 < 0.3 {
		t.Errorf("fraud below 2000 = %.2f, want ≈0.45", r.FraudBelow2000)
	}
	if r.FraudAtFloor < 0.05 {
		t.Errorf("fraud at floor = %.2f, want ≈0.15", r.FraudAtFloor)
	}
	if r.AvgBelowMean < 0.5 {
		t.Errorf("avgUserExpValue below mean = %.2f, want ≈0.7", r.AvgBelowMean)
	}
}

func TestFig12(t *testing.T) {
	r := run[*Fig12Result](t, (*Lab).Fig12)
	if r.TopFraudClient != ecom.ClientWeb {
		t.Errorf("top fraud client = %s, want Web", r.TopFraudClient)
	}
	if r.TopNormalClient != ecom.ClientAndroid {
		t.Errorf("top normal client = %s, want Android", r.TopNormalClient)
	}
	var sumF float64
	for _, v := range r.Fraud {
		sumF += v
	}
	if sumF < 0.99 || sumF > 1.01 {
		t.Errorf("fraud shares sum to %.3f", sumF)
	}
}

func TestFig13(t *testing.T) {
	r := run[*Fig13Result](t, (*Lab).Fig13)
	if len(r.Features) != 11 {
		t.Fatalf("features = %d", len(r.Features))
	}
	for _, f := range r.Features {
		// Platform agreement should be far stronger than class
		// separation for the discriminative features; at minimum the
		// fraud distributions must agree across platforms better than
		// fraud agrees with normal.
		if f.PlatformKS > 0.9 {
			t.Errorf("%s: platform KS %.3f close to disjoint", f.Name, f.PlatformKS)
		}
	}
	// Majority of features separate classes meaningfully.
	sep := 0
	for _, f := range r.Features {
		if f.ClassKS > 0.3 {
			sep++
		}
	}
	if sep < 7 {
		t.Errorf("only %d/11 features separate classes (KS > 0.3)", sep)
	}
}

func TestEPlatformPipeline(t *testing.T) {
	r := run[*EPlatformResult](t, (*Lab).EPlatform)
	if r.ItemsCollected == 0 || r.CommentsCollected == 0 {
		t.Fatal("crawl collected nothing")
	}
	if r.Reported == 0 {
		t.Fatal("no fraud reported")
	}
	if r.AuditPrecision < 0.75 {
		t.Errorf("audit precision %.2f, want >= 0.75 (paper 0.96)", r.AuditPrecision)
	}
	if !strings.Contains(r.String(), "E-platform") {
		t.Error("String() missing header")
	}
}

func TestRiskyUsers(t *testing.T) {
	r := run[*RiskyUsersResult](t, (*Lab).RiskyUsers)
	if r.RiskyUsers == 0 {
		t.Fatal("no risky users found")
	}
	if r.MultiBuyerShare <= 0 {
		t.Error("no repeat fraud buyers; collusion rings broken")
	}
	if r.CollusivePairs == 0 || r.PairUserSet == 0 {
		t.Error("no collusive pairs found")
	}
	if r.PairUserSet > 2*r.CollusivePairs+2 {
		t.Error("pair user set larger than possible")
	}
	// The funnel is deterministic at the test lab's scale. A direct
	// count of user pairs sharing 2+ fraud items gives these numbers
	// too, so a drift here is a change in graph's mining.
	if r.RiskyUsers != 101 || r.CollusivePairs != 108 || r.PairUserSet != 37 {
		t.Errorf("funnel = %d risky users, %d pairs, %d users; want 101, 108, 37",
			r.RiskyUsers, r.CollusivePairs, r.PairUserSet)
	}
	if r.SkippedMegaItems != 0 {
		t.Errorf("degree cap kept %d fraud items out of the pair count", r.SkippedMegaItems)
	}
}

func TestFilterAblation(t *testing.T) {
	r := run[*Sweep](t, (*Lab).FilterAblation)
	// The filter removes low-volume, no-signal items — precision with
	// the filter must be at least as good as without.
	with, without := r.Rows[0], r.Rows[1]
	if with.Metrics.Precision+0.02 < without.Metrics.Precision {
		t.Errorf("filter hurt precision: %.3f vs %.3f", with.Metrics.Precision, without.Metrics.Precision)
	}
	if with.X == 0 {
		t.Error("filter removed nothing")
	}
}

func TestFeatureGroupAblation(t *testing.T) {
	r := run[*Sweep](t, (*Lab).FeatureGroupAblation)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	f1 := map[string]float64{}
	for i, row := range r.Rows {
		f1[featureGroups[i].name] = row.Metrics.F1
	}
	if f1["all 11"]+0.05 < f1["word level"] || f1["all 11"]+0.05 < f1["semantic"] {
		t.Errorf("full feature set underperforms subsets: %v", f1)
	}
}

func TestLexiconSizeAblation(t *testing.T) {
	r := run[*Sweep](t, (*Lab).LexiconSizeAblation)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Metrics.F1 == 0 {
			t.Errorf("cap %.0f: zero F1", row.X)
		}
	}
}

func TestGBTAblation(t *testing.T) {
	r := run[*Sweep](t, (*Lab).GBTAblation)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Metrics.F1 < 0.3 {
			t.Errorf("%s: F1 %.2f suspiciously low", row.Label, row.Metrics.F1)
		}
	}
}
