package graph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ecom"
	"repro/internal/synth"
)

// randomBuilder draws a random bipartite evidence graph and the edge
// list it was built from. Users and items are interned up front in a
// fixed order so tests can permute edge insertion independently.
func randomBuilder(rng *rand.Rand, nUsers, nItems int, fraudShare float64) (*Builder, [][2]int, []bool) {
	b := NewBuilder(Config{})
	fraud := make([]bool, nItems)
	for u := 0; u < nUsers; u++ {
		b.User("u"+strconv.Itoa(u), int64(100+rng.Intn(5000)))
	}
	for it := 0; it < nItems; it++ {
		id := b.Item("i" + strconv.Itoa(it))
		if rng.Float64() < fraudShare {
			b.MarkFraud(id)
			fraud[it] = true
		}
	}
	var edges [][2]int
	for it := 0; it < nItems; it++ {
		deg := rng.Intn(13)
		for k := 0; k < deg; k++ {
			edges = append(edges, [2]int{rng.Intn(nUsers), it})
		}
		// Occasionally duplicate an edge: dedupe must absorb it.
		if deg > 0 && rng.Intn(3) == 0 {
			edges = append(edges, edges[len(edges)-1])
		}
	}
	for _, e := range edges {
		b.AddEdge(UserID(e[0]), ItemID(e[1]))
	}
	return b, edges, fraud
}

// oraclePairs recomputes pair counts with a naive map-of-sets: per
// fraud item a distinct-buyer set, then every pair of each set counted
// into a map. The CSR miner must agree exactly.
func oraclePairs(edges [][2]int, fraud []bool, cfg Config) map[uint64]int32 {
	cfg = cfg.withDefaults()
	byItem := map[int]map[int]bool{}
	for _, e := range edges {
		if !fraud[e[1]] {
			continue
		}
		if byItem[e[1]] == nil {
			byItem[e[1]] = map[int]bool{}
		}
		byItem[e[1]][e[0]] = true
	}
	counts := map[uint64]int32{}
	for _, buyers := range byItem {
		if len(buyers) < 2 || len(buyers) > cfg.MaxItemDegree {
			continue
		}
		var ids []int
		for u := range buyers {
			ids = append(ids, u)
		}
		sort.Ints(ids)
		for i := range ids {
			for j := 0; j < i; j++ {
				counts[pairKey(UserID(ids[j]), UserID(ids[i]))]++
			}
		}
	}
	return counts
}

func TestPairMiningDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, edges, fraud := randomBuilder(rng, 50+rng.Intn(200), 20+rng.Intn(60), 0.4)
		g := b.Build()
		tab, _, _ := g.minePairs()
		want := oraclePairs(edges, fraud, g.cfg)
		got := map[uint64]int32{}
		for i, k := range tab.keys {
			if k != 0 {
				got[k] = tab.counts[i]
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d mined pairs, oracle has %d", seed, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				lo, hi := pairUsers(k)
				t.Fatalf("seed %d: pair (%d,%d) count %d, oracle %d", seed, lo, hi, got[k], c)
			}
		}
	}
}

func TestPairMiningDegreeCap(t *testing.T) {
	b := NewBuilder(Config{MaxItemDegree: 8})
	for u := 0; u < 20; u++ {
		b.User("u"+strconv.Itoa(u), 100)
	}
	mega := b.Item("mega")
	b.MarkFraud(mega)
	small := b.Item("small")
	b.MarkFraud(small)
	for u := 0; u < 20; u++ {
		b.AddEdge(UserID(u), mega)
	}
	for u := 0; u < 3; u++ {
		b.AddEdge(UserID(u), small)
	}
	g := b.Build()
	tab, mined, skipped := g.minePairs()
	if mined != 1 || skipped != 1 {
		t.Fatalf("mined %d skipped %d, want 1/1", mined, skipped)
	}
	if tab.n != 3 {
		t.Fatalf("capped mining left %d pairs, want 3", tab.n)
	}
}

// reportBytes is the report's encoding/json form: every field of every
// cluster, in report order.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clusterReportBytes builds, clusters, and encodes one run over the
// given dataset.
func clusterReportBytes(t *testing.T, ds *ecom.Dataset) []byte {
	g := FromDataset(ds, func(it *ecom.Item) bool { return it.Label.IsFraud() }, Config{})
	return reportBytes(t, g.Cluster())
}

func TestReportDeterminism(t *testing.T) {
	u := synth.RingAttack(synth.RingConfig{Seed: 7})
	first := clusterReportBytes(t, &u.Dataset)
	for run := 0; run < 3; run++ {
		again := clusterReportBytes(t, &synth.RingAttack(synth.RingConfig{Seed: 7}).Dataset)
		if !bytes.Equal(first, again) {
			t.Fatalf("run %d: report bytes differ from first run", run)
		}
	}
}

func TestReportEdgeOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b, edges, _ := randomBuilder(rng, 120, 50, 0.5)
	base := reportBytes(t, b.Build().Cluster())
	for trial := 0; trial < 5; trial++ {
		// Rebuild with identical intern order but shuffled edges.
		b2 := NewBuilder(Config{})
		rng2 := rand.New(rand.NewSource(99))
		randomBuilderInto(b2, rng2, 120, 50, 0.5)
		shuffled := make([][2]int, len(edges))
		copy(shuffled, edges)
		shufRng := rand.New(rand.NewSource(int64(trial)))
		shufRng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, e := range shuffled {
			b2.AddEdge(UserID(e[0]), ItemID(e[1]))
		}
		got := reportBytes(t, b2.Build().Cluster())
		if !bytes.Equal(base, got) {
			t.Fatalf("trial %d: permuted edge order changed report bytes", trial)
		}
	}
}

// randomBuilderInto replays randomBuilder's intern and fraud-marking
// draws (same rng sequence) without adding edges.
func randomBuilderInto(b *Builder, rng *rand.Rand, nUsers, nItems int, fraudShare float64) {
	for u := 0; u < nUsers; u++ {
		b.User("u"+strconv.Itoa(u), int64(100+rng.Intn(5000)))
	}
	for it := 0; it < nItems; it++ {
		id := b.Item("i" + strconv.Itoa(it))
		if rng.Float64() < fraudShare {
			b.MarkFraud(id)
		}
	}
}

func TestRingRecovery(t *testing.T) {
	u := synth.RingAttack(synth.RingConfig{Seed: 11})
	g := FromDataset(&u.Dataset, func(it *ecom.Item) bool { return it.Label.IsFraud() }, Config{})
	rep := g.Cluster()
	if len(rep.Clusters) != len(u.Rings) {
		t.Fatalf("%d clusters for %d planted rings", len(rep.Clusters), len(u.Rings))
	}
	matched := make([]bool, len(u.Rings))
	for ci := range rep.Clusters {
		c := &rep.Clusters[ci]
		ring := u.UserRing[c.Users[0]]
		if matched[ring] {
			t.Fatalf("ring %d matched by two clusters (split)", ring)
		}
		if len(c.Users) != len(u.Rings[ring]) {
			t.Fatalf("cluster %d has %d users, ring %d has %d", ci, len(c.Users), ring, len(u.Rings[ring]))
		}
		for _, uid := range c.Users {
			if r, ok := u.UserRing[uid]; !ok || r != ring {
				t.Fatalf("cluster %d mixes ring %d with user %s (merge)", ci, ring, uid)
			}
		}
		matched[ring] = true
		// Every ring item is fraud-scored and shared by the whole ring.
		if c.SharedFraudItems != u.Config.ItemsPerRing {
			t.Errorf("cluster %d shares %d fraud items, want %d", ci, c.SharedFraudItems, u.Config.ItemsPerRing)
		}
		if c.FraudFraction != 1 {
			t.Errorf("cluster %d fraud fraction %v, want 1", ci, c.FraudFraction)
		}
		if c.Risk <= 0 || c.Risk >= 1 {
			t.Errorf("cluster %d risk %v out of (0,1)", ci, c.Risk)
		}
	}
	for r, ok := range matched {
		if !ok {
			t.Errorf("ring %d never recovered", r)
		}
	}
}

func TestFunnelMatchesEcomStats(t *testing.T) {
	u := synth.RingAttack(synth.RingConfig{Seed: 3})
	stats := u.Dataset.Stats()
	g := FromDataset(&u.Dataset, func(it *ecom.Item) bool { return it.Label.IsFraud() }, Config{})
	rep := g.Cluster()
	if rep.RiskyUsers != stats.RiskyUsers {
		t.Errorf("graph risky users %d, ecom.Stats %d", rep.RiskyUsers, stats.RiskyUsers)
	}
	if rep.RepeatBuyers != stats.RepeatFraudBuyers {
		t.Errorf("graph repeat buyers %d, ecom.Stats %d", rep.RepeatBuyers, stats.RepeatFraudBuyers)
	}
	// The same parity must hold on Generate's probabilistic universes.
	gu := synth.Generate(synth.Config{
		Name: "parity", Seed: 17, FraudEvidence: 40, Normal: 80, Shops: 6,
	})
	gstats := gu.Dataset.Stats()
	gg := FromDataset(&gu.Dataset, func(it *ecom.Item) bool { return it.Label.IsFraud() }, Config{})
	grep := gg.Cluster()
	if grep.RiskyUsers != gstats.RiskyUsers || grep.RepeatBuyers != gstats.RepeatFraudBuyers {
		t.Errorf("generate universe: graph funnel (%d,%d) != ecom.Stats (%d,%d)",
			grep.RiskyUsers, grep.RepeatBuyers, gstats.RiskyUsers, gstats.RepeatFraudBuyers)
	}
}
