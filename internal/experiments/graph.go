package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// GraphResult is the organized-fraud clustering benchmark: a planted
// colluding-ring universe at configurable scale (Config.GraphUsers /
// GraphEdges; the headline run is 10M users / 100M edges), pushed
// through the full internal/graph pipeline — intern, edge load, CSR
// freeze, pair mining + clustering — with per-phase wall times, the
// pairs→clusters funnel, ring-recovery accounting, and peak RSS.
type GraphResult struct {
	Users      int `json:"users"`
	Items      int `json:"items"`
	Edges      int `json:"edges"`
	FraudItems int `json:"fraud_items"`

	// Phase wall times. The acceptance bound covers mining+clustering
	// (ClusterSeconds); intern and edge generation are corpus-loading
	// cost, reported separately.
	InternSeconds  float64 `json:"intern_seconds"`
	EdgeGenSeconds float64 `json:"edge_gen_seconds"`
	CSRSeconds     float64 `json:"csr_seconds"`
	ClusterSeconds float64 `json:"cluster_seconds"`

	// The pairs→clusters funnel (Report fields).
	CandidatePairs   int `json:"candidate_pairs"`
	QualifyingPairs  int `json:"qualifying_pairs"`
	Clusters         int `json:"clusters"`
	ClusteredUsers   int `json:"clustered_users"`
	RiskyUsers       int `json:"risky_users"`
	RepeatBuyers     int `json:"repeat_fraud_buyers"`
	SkippedMegaItems int `json:"skipped_mega_items"`

	// Ring recovery at default thresholds: Recovered clusters match a
	// planted ring member-for-member; Split rings shattered across
	// clusters; Merged clusters mix rings (or pull in outsiders).
	RingsPlanted   int `json:"rings_planted"`
	RingsRecovered int `json:"rings_recovered"`
	RingsSplit     int `json:"rings_split"`
	RingsMerged    int `json:"rings_merged"`

	PeakRSS int64 `json:"peak_rss_bytes"`
}

// Benchmark topology, sized so the fraud surface grows with the user
// pool while staying collusion-shaped: rings of 8 users promote 10
// fraud items each, every fraud item is diluted by 24 one-shot organic
// buyers (so dilution can never qualify a pair), and every remaining
// edge is organic background onto normal items (never mined).
const (
	benchRingSize     = 8
	benchItemsPerRing = 10
	benchDilution     = 24
)

// Graph runs the clustering benchmark.
func (l *Lab) Graph(context.Context) (fmt.Stringer, error) {
	users := l.cfg.GraphUsers
	edges := l.cfg.GraphEdges
	rings := users / 10000
	if rings < 2 {
		rings = 2
	}
	ringUsers := rings * benchRingSize
	fraudItems := rings * benchItemsPerRing
	plantedEdges := ringUsers*benchItemsPerRing + fraudItems*benchDilution
	if users < ringUsers+fraudItems*benchDilution+1000 {
		return nil, fmt.Errorf("graph: %d users too few for %d rings", users, rings)
	}
	if edges < plantedEdges {
		edges = plantedEdges
	}
	normalItems := edges / 64
	if normalItems < 64 {
		normalItems = 64
	}
	rng := rand.New(rand.NewSource(7700 + l.cfg.Seed))

	res := &GraphResult{Users: users, Edges: edges, FraudItems: fraudItems,
		Items: fraudItems + normalItems, RingsPlanted: rings}

	// Phase 1: intern the population. User index i keeps dense id i
	// (items likewise), so edge generation below skips the intern maps.
	start := time.Now()
	b := graph.NewBuilder(graph.Config{})
	b.Reserve(users, fraudItems+normalItems, edges)
	for i := 0; i < users; i++ {
		exp := int64(2500 + i%8000) // organic reputation
		if i < ringUsers {
			exp = int64(150 + i%700) // hired accounts sit low
		}
		b.User("u"+strconv.Itoa(i), exp)
	}
	for i := 0; i < fraudItems; i++ {
		b.MarkFraud(b.Item("f" + strconv.Itoa(i)))
	}
	for i := 0; i < normalItems; i++ {
		b.Item("n" + strconv.Itoa(i))
	}
	res.InternSeconds = time.Since(start).Seconds()

	// Phase 2: edges. Ring members co-purchase all their ring's items;
	// dilution buyers are consumed without replacement; the rest is
	// uniform organic background onto normal items.
	start = time.Now()
	for r := 0; r < rings; r++ {
		for m := 0; m < benchRingSize; m++ {
			u := graph.UserID(r*benchRingSize + m)
			for k := 0; k < benchItemsPerRing; k++ {
				b.AddEdge(u, graph.ItemID(r*benchItemsPerRing+k))
			}
		}
	}
	dilution := ringUsers
	for i := 0; i < fraudItems; i++ {
		for d := 0; d < benchDilution; d++ {
			b.AddEdge(graph.UserID(dilution), graph.ItemID(i))
			dilution++
		}
	}
	organicLo := dilution // background never touches fraud-item buyers
	for b.Edges() < edges {
		u := graph.UserID(organicLo + rng.Intn(users-organicLo))
		it := graph.ItemID(fraudItems + rng.Intn(normalItems))
		b.AddEdge(u, it)
	}
	res.EdgeGenSeconds = time.Since(start).Seconds()

	// Phase 3: freeze into CSR.
	start = time.Now()
	g := b.Build()
	res.CSRSeconds = time.Since(start).Seconds()

	// Phase 4: mine pairs and cluster.
	start = time.Now()
	rep := g.Cluster()
	res.ClusterSeconds = time.Since(start).Seconds()

	res.CandidatePairs = rep.CandidatePairs
	res.QualifyingPairs = rep.QualifyingPairs
	res.Clusters = len(rep.Clusters)
	res.ClusteredUsers = rep.ClusteredUsers
	res.RiskyUsers = rep.RiskyUsers
	res.RepeatBuyers = rep.RepeatBuyers
	res.SkippedMegaItems = rep.SkippedMegaItems

	res.RingsRecovered, res.RingsSplit, res.RingsMerged =
		ringRecovery(rep, rings, ringUsers)

	res.PeakRSS = peakRSSBytes()
	return res, nil
}

// ringRecovery grades detected clusters against the planted rings:
// a ring is recovered iff exactly one cluster holds exactly its member
// set. Benchmark user ids are "u<i>" with ring i/benchRingSize for
// i < ringUsers.
func ringRecovery(rep *graph.Report, rings, ringUsers int) (recovered, split, merged int) {
	clustersOfRing := make([]int, rings)
	exactOfRing := make([]bool, rings)
	for ci := range rep.Clusters {
		c := &rep.Clusters[ci]
		ring := -1
		pure := true
		for _, uid := range c.Users {
			idx, err := strconv.Atoi(strings.TrimPrefix(uid, "u"))
			if err != nil || idx >= ringUsers {
				pure = false
				break
			}
			r := idx / benchRingSize
			if ring == -1 {
				ring = r
			} else if r != ring {
				pure = false
				break
			}
		}
		if !pure || ring < 0 {
			merged++
			continue
		}
		clustersOfRing[ring]++
		if c.Size == benchRingSize {
			exactOfRing[ring] = true
		}
	}
	for r := 0; r < rings; r++ {
		switch {
		case clustersOfRing[r] == 1 && exactOfRing[r]:
			recovered++
		case clustersOfRing[r] > 1:
			split++
		}
	}
	return recovered, split, merged
}

// String prints the clustering benchmark report.
func (r *GraphResult) String() string {
	var b strings.Builder
	b.WriteString("Organized-fraud clustering — co-purchase graph at scale\n")
	fmt.Fprintf(&b, "  corpus    %d users, %d items (%d fraud-scored), %d edges\n",
		r.Users, r.Items, r.FraudItems, r.Edges)
	fmt.Fprintf(&b, "  phases    intern %.2fs, edges %.2fs, csr %.2fs, mine+cluster %.2fs\n",
		r.InternSeconds, r.EdgeGenSeconds, r.CSRSeconds, r.ClusterSeconds)
	fmt.Fprintf(&b, "  funnel    %d candidate pairs -> %d qualifying -> %d clusters (%d users); %d mega-items skipped\n",
		r.CandidatePairs, r.QualifyingPairs, r.Clusters, r.ClusteredUsers, r.SkippedMegaItems)
	fmt.Fprintf(&b, "  risky     %d risky users, %d repeat fraud buyers\n",
		r.RiskyUsers, r.RepeatBuyers)
	fmt.Fprintf(&b, "  recovery  %d/%d rings exact (%d split, %d merged)\n",
		r.RingsRecovered, r.RingsPlanted, r.RingsSplit, r.RingsMerged)
	if r.PeakRSS > 0 {
		fmt.Fprintf(&b, "  memory    peak RSS %s\n", fmtBytes(r.PeakRSS))
	}
	return b.String()
}

// peakRSSBytes reads the process's resident-set high-water mark from
// /proc (linux). Returns 0 elsewhere; callers treat 0 as "unmeasured".
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
