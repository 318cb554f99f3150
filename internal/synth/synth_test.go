package synth

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ecom"
	"repro/internal/stats"
)

func smallConfig() Config {
	return Config{
		Name: "small", Platform: "t", Seed: 1,
		FraudEvidence: 80, FraudManual: 20, Normal: 150, Shops: 10,
	}
}

func TestGenerateCounts(t *testing.T) {
	u := Generate(smallConfig())
	s := u.Dataset.Stats()
	if s.EvidenceFraud != 80 || s.ManualFraud != 20 || s.NormalItems != 150 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Comments == 0 {
		t.Fatal("no comments generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(smallConfig()), Generate(smallConfig())
	if len(a.Dataset.Items) != len(b.Dataset.Items) {
		t.Fatal("item counts differ")
	}
	for i := range a.Dataset.Items {
		ia, ib := a.Dataset.Items[i], b.Dataset.Items[i]
		if ia.ID != ib.ID || ia.Label != ib.Label || len(ia.Comments) != len(ib.Comments) {
			t.Fatalf("item %d differs between identical configs", i)
		}
		if len(ia.Comments) > 0 && ia.Comments[0].Content != ib.Comments[0].Content {
			t.Fatalf("comment content differs at item %d", i)
		}
	}
}

func TestUniqueItemIDs(t *testing.T) {
	u := Generate(smallConfig())
	seen := map[string]bool{}
	for i := range u.Dataset.Items {
		id := u.Dataset.Items[i].ID
		if seen[id] {
			t.Fatalf("duplicate item id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "t-i") {
			t.Fatalf("item id %q missing platform prefix", id)
		}
	}
}

func TestScale(t *testing.T) {
	cfg := D1Config().Scale(0.001)
	if cfg.FraudEvidence != 17 || cfg.FraudManual != 2 {
		t.Errorf("scaled fraud counts = %d/%d", cfg.FraudEvidence, cfg.FraudManual)
	}
	if cfg.Normal != 1461 {
		t.Errorf("scaled normal = %d", cfg.Normal)
	}
	// Zero stays zero; tiny nonzero clamps to 1.
	e := EPlatformConfig().Scale(1e-9)
	if e.FraudManual != 0 {
		t.Error("zero class should stay zero")
	}
	if e.FraudEvidence != 1 {
		t.Error("nonzero class should clamp to 1")
	}
}

func TestRiskyUsersLowExpValue(t *testing.T) {
	u := Generate(smallConfig())
	var riskyVals, organicVals []float64
	for _, usr := range u.Users {
		if u.RiskyUserIDs[usr.ID] {
			riskyVals = append(riskyVals, float64(usr.ExpValue))
		} else {
			organicVals = append(organicVals, float64(usr.ExpValue))
		}
	}
	if len(riskyVals) == 0 || len(organicVals) == 0 {
		t.Fatal("user pools empty")
	}
	rs, os := stats.Summarize(riskyVals), stats.Summarize(organicVals)
	if rs.Median >= os.Median {
		t.Fatalf("risky median expValue %v >= organic %v", rs.Median, os.Median)
	}
	// Floor respected.
	if rs.Min < 100 || os.Min < 100 {
		t.Fatal("expValue below floor of 100")
	}
	// ~25% of risky users at the floor (≈15% of unique fraud buyers
	// after organic dilution, Fig 11).
	atFloor := stats.FractionEqual(riskyVals, 100)
	if atFloor < 0.12 || atFloor > 0.40 {
		t.Errorf("risky users at floor = %.2f, want ≈0.25", atFloor)
	}
}

func TestFraudBuyersLessReliable(t *testing.T) {
	u := Generate(Config{
		Name: "buyers", Seed: 3,
		FraudEvidence: 150, Normal: 150, Shops: 10,
	})
	var fraudBuyers, normalBuyers []float64
	for i := range u.Dataset.Items {
		it := &u.Dataset.Items[i]
		for j := range it.Comments {
			v := float64(it.Comments[j].ExpVal)
			if it.Label.IsFraud() {
				fraudBuyers = append(fraudBuyers, v)
			} else {
				normalBuyers = append(normalBuyers, v)
			}
		}
	}
	fb := stats.FractionBelow(fraudBuyers, 2000)
	nb := stats.FractionBelow(normalBuyers, 2000)
	if fb <= nb {
		t.Fatalf("fraud buyers below 2000: %.2f <= normal %.2f", fb, nb)
	}
	if fb < 0.3 {
		t.Errorf("fraud buyers below 2000 = %.2f, want ≈0.45 (Fig 11 shape)", fb)
	}
}

func TestClientDistributions(t *testing.T) {
	u := Generate(Config{
		Name: "clients", Seed: 4,
		FraudEvidence: 200, Normal: 200, Shops: 10,
	})
	count := func(fraud bool) map[ecom.Client]int {
		m := map[ecom.Client]int{}
		for i := range u.Dataset.Items {
			it := &u.Dataset.Items[i]
			if it.Label.IsFraud() != fraud {
				continue
			}
			for j := range it.Comments {
				m[it.Comments[j].Client]++
			}
		}
		return m
	}
	fc, nc := count(true), count(false)
	// Fig 12: fraud orders dominated by web, normal by Android.
	if fc[ecom.ClientWeb] <= fc[ecom.ClientAndroid] {
		t.Errorf("fraud: web %d <= android %d", fc[ecom.ClientWeb], fc[ecom.ClientAndroid])
	}
	if nc[ecom.ClientAndroid] <= nc[ecom.ClientWeb] {
		t.Errorf("normal: android %d <= web %d", nc[ecom.ClientAndroid], nc[ecom.ClientWeb])
	}
}

func TestCollusionRings(t *testing.T) {
	u := Generate(Config{
		Name: "rings", Seed: 5,
		FraudEvidence: 200, Normal: 50, Shops: 5, RiskyUsers: 60,
	})
	// Count fraud items per risky user; ring reuse should give many
	// users multiple purchases.
	perUser := map[string]int{}
	for i := range u.Dataset.Items {
		it := &u.Dataset.Items[i]
		if !it.Label.IsFraud() {
			continue
		}
		seen := map[string]bool{}
		for j := range it.Comments {
			uid := it.Comments[j].UserID
			if u.RiskyUserIDs[uid] && !seen[uid] {
				seen[uid] = true
				perUser[uid]++
			}
		}
	}
	multi := 0
	for _, n := range perUser {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no risky user purchased more than one fraud item; rings not working")
	}
}

func TestLowVolumeShare(t *testing.T) {
	u := Generate(Config{
		Name: "lowvol", Seed: 6,
		FraudEvidence: 10, Normal: 400, Shops: 5, LowVolumeShare: 0.2,
	})
	low := 0
	for i := range u.Dataset.Items {
		it := &u.Dataset.Items[i]
		if !it.Label.IsFraud() && it.SalesVolume < 5 {
			low++
		}
	}
	frac := float64(low) / 400
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("low-volume share = %.2f, want ≈0.2", frac)
	}
}

func TestPaperConfigs(t *testing.T) {
	d0 := D0Config()
	if d0.FraudEvidence+d0.FraudManual != 14000 || d0.Normal != 20000 {
		t.Errorf("D0Config item counts wrong: %+v", d0)
	}
	d1 := D1Config()
	if d1.FraudEvidence != 16782 || d1.FraudManual != 1900 || d1.Normal != 1461452 {
		t.Errorf("D1Config counts wrong: %+v", d1)
	}
	if d1.Shops != 15992 {
		t.Errorf("D1 shops = %d, want 15992", d1.Shops)
	}
	ep := EPlatformConfig()
	if ep.FraudEvidence+ep.Normal != 4500000 {
		t.Errorf("E-platform total = %d, want 4.5M", ep.FraudEvidence+ep.Normal)
	}
	if ep.StyleJitter == 0 {
		t.Error("E-platform should have nonzero style jitter")
	}
}

func TestPolarCorpus(t *testing.T) {
	texts, labels := PolarCorpus(100, 1)
	if len(texts) != 100 || len(labels) != 100 {
		t.Fatal("wrong corpus size")
	}
	pos := 0
	for _, l := range labels {
		pos += l
	}
	if pos != 50 {
		t.Fatalf("positive labels = %d, want 50", pos)
	}
}

func TestTrainingCorpus(t *testing.T) {
	c := TrainingCorpus(200, 2)
	if len(c) != 200 {
		t.Fatalf("corpus size = %d", len(c))
	}
	for _, s := range c {
		if s == "" {
			t.Fatal("empty comment in corpus")
		}
	}
}

func TestD0CommentVolume(t *testing.T) {
	// Scaled D0 should land near the paper's ≈14 comments/item.
	u := Generate(D0Config().Scale(0.02))
	s := u.Dataset.Stats()
	perItem := float64(s.Comments) / float64(s.FraudItems+s.NormalItems)
	if perItem < 10 || perItem > 18 {
		t.Errorf("comments/item = %.1f, want ≈14 (Table IV shape)", perItem)
	}
}

// TestPaddedIDMatchesSprintf: the generator's IDs are fmt's
// "%s-c%04d"-style text, widths overflowing as fmt's do.
func TestPaddedIDMatchesSprintf(t *testing.T) {
	for _, v := range []int{0, 7, 42, 999, 9999, 10000, 123456, 999999999, 1000000000, 1<<62 + 5} {
		for _, width := range []int{4, 5, 7, 9} {
			want := fmt.Sprintf("taobao-c%0*d", width, v)
			if got := paddedID("taobao-c", v, width); got != want {
				t.Errorf("paddedID(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}
