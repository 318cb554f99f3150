package graph

import (
	"math"
	"sort"
)

// Cluster is one detected colluding-user component with its evidence
// stats — the unit the paper's measurement study counts when 83,745
// qualifying pairs collapse to 1,056 users.
type Cluster struct {
	// ID is the cluster's index in the report's canonical order.
	ID int32 `json:"id"`
	// Users are the member user ids, lexicographically sorted.
	Users []string `json:"users"`
	// Size is len(Users).
	Size int `json:"size"`
	// Pairs is the number of qualifying co-purchase pairs inside the
	// cluster.
	Pairs int `json:"pairs"`
	// SharedFraudItems counts fraud-scored items with at least two
	// cluster members among their buyers — the co-purchase evidence.
	SharedFraudItems int `json:"shared_fraud_items"`
	// ItemsTouched counts all items (fraud or not) with at least two
	// cluster members among their buyers.
	ItemsTouched int `json:"items_touched"`
	// FraudFraction is SharedFraudItems / ItemsTouched.
	FraudFraction float64 `json:"fraud_fraction"`
	// MeanExpValue is the members' mean platform reliability score;
	// organized rings sit far below the pool average (Fig 11).
	MeanExpValue float64 `json:"mean_exp_value"`
	// Risk is the composite cluster risk in [0,1): larger, more
	// fraud-saturated, less reputable clusters score higher.
	Risk float64 `json:"risk"`
}

// Report is the full clustering result: the pairs→clusters funnel
// plus every cluster in canonical order (risk-relevant first: size
// descending, then first member ascending). Reports are deterministic:
// the same evidence yields the same report regardless of edge insertion
// order.
type Report struct {
	Users int `json:"users"`
	Items int `json:"items"`
	Edges int `json:"edges"`

	// FraudItems is the number of fraud-scored items; MinedItems of
	// those fed the pair miner (>= 2 distinct buyers, under the degree
	// cap) and SkippedMegaItems were dropped by the cap.
	FraudItems       int `json:"fraud_items"`
	MinedItems       int `json:"mined_items"`
	SkippedMegaItems int `json:"skipped_mega_items"`

	// RiskyUsers counts distinct users who bought at least one
	// fraud-scored item, RepeatBuyers those who bought at least two
	// distinct ones — the Table VII funnel, same definitions as
	// ecom.Stats.
	RiskyUsers   int `json:"risky_users"`
	RepeatBuyers int `json:"repeat_fraud_buyers"`

	// CandidatePairs is every distinct buyer pair the miner saw on a
	// fraud-scored item; QualifyingPairs share MinSharedItems+ of them.
	CandidatePairs  int `json:"candidate_pairs"`
	QualifyingPairs int `json:"qualifying_pairs"`

	// ClusteredUsers is the distinct-user mass of all clusters (the
	// paper's "collapse to 1,056 users").
	ClusteredUsers int       `json:"clustered_users"`
	Clusters       []Cluster `json:"clusters"`
}

// Cluster mines co-purchase pairs and collapses them into clusters.
// The pipeline is: qualifying pairs (count >= MinSharedItems) →
// union-find components → per-cluster evidence stats in two flat
// passes over the CSR arrays.
func (g *Graph) Cluster() *Report {
	rep := &Report{
		Users: len(g.userIDs), Items: len(g.itemIDs), Edges: g.edges,
		FraudItems: g.fraudItems,
	}
	g.fraudBuyerFunnel(rep)

	t, mined, skipped := g.minePairs()
	rep.MinedItems, rep.SkippedMegaItems = mined, skipped
	rep.CandidatePairs = t.n

	// Union qualifying pairs into components.
	minShared := int32(g.cfg.MinSharedItems)
	uf := newUnionFind(len(g.userIDs))
	for i, k := range t.keys {
		if k != 0 && t.counts[i] >= minShared {
			rep.QualifyingPairs++
			lo, hi := pairUsers(k)
			uf.union(int32(lo), int32(hi))
		}
	}

	// Canonical cluster indices: scanning users in dense-id order,
	// each qualifying component gets an index at its first member —
	// a numbering independent of pair-table layout and union order.
	minSize := int32(g.cfg.MinClusterSize)
	if minSize < 2 {
		minSize = 2
	}
	clusterOf := make([]int32, len(g.userIDs))
	rootCluster := make([]int32, len(g.userIDs))
	for i := range rootCluster {
		rootCluster[i] = -1
	}
	var members [][]UserID
	for u := range g.userIDs {
		clusterOf[u] = -1
		root := uf.find(int32(u))
		if uf.size[root] < minSize {
			continue
		}
		c := rootCluster[root]
		if c < 0 {
			c = int32(len(members))
			rootCluster[root] = c
			members = append(members, nil)
		}
		clusterOf[u] = c
		members[c] = append(members[c], UserID(u))
	}

	clusters := make([]Cluster, len(members))
	for c := range members {
		var sumExp float64
		for _, u := range members[c] {
			sumExp += float64(g.userExp[u])
		}
		clusters[c].Size = len(members[c])
		clusters[c].MeanExpValue = sumExp / float64(len(members[c]))
	}

	// Qualifying pairs per cluster.
	for i, k := range t.keys {
		if k != 0 && t.counts[i] >= minShared {
			lo, _ := pairUsers(k)
			if c := clusterOf[lo]; c >= 0 {
				clusters[c].Pairs++
			}
		}
	}

	// Item evidence pass: for every item, count distinct member buyers
	// per cluster; two or more make the item co-purchase evidence.
	// userMark dedupes raw (non-fraud) buyer runs by epoch.
	userMark := make([]int32, len(g.userIDs))
	for i := range userMark {
		userMark[i] = -1
	}
	var scratch []clusterCount
	for it := range g.itemIDs {
		scratch = countMembers(g.buyers(it), int32(it), clusterOf, userMark, scratch[:0])
		for _, cc := range scratch {
			if cc.n < 2 {
				continue
			}
			clusters[cc.cluster].ItemsTouched++
			if g.itemFraud[it] {
				clusters[cc.cluster].SharedFraudItems++
			}
		}
	}

	for c := range clusters {
		cl := &clusters[c]
		if cl.ItemsTouched > 0 {
			cl.FraudFraction = float64(cl.SharedFraudItems) / float64(cl.ItemsTouched)
		}
		cl.Risk = riskScore(cl.Size, cl.FraudFraction, cl.MeanExpValue)
		cl.Users = make([]string, len(members[c]))
		for i, u := range members[c] {
			cl.Users[i] = g.userIDs[u]
		}
		sort.Strings(cl.Users)
		rep.ClusteredUsers += cl.Size
	}

	// Canonical report order: size descending, then first member
	// ascending (members are disjoint, so first members never tie).
	sort.Slice(clusters, func(a, b int) bool {
		ca, cb := &clusters[a], &clusters[b]
		if ca.Size != cb.Size {
			return ca.Size > cb.Size
		}
		return ca.Users[0] < cb.Users[0]
	})
	for i := range clusters {
		clusters[i].ID = int32(i)
	}
	rep.Clusters = clusters
	return rep
}

// clusterCount is one item's per-cluster distinct-buyer tally.
type clusterCount struct {
	cluster int32
	n       int32
}

// countMembers tallies, per cluster, the distinct clustered buyers of
// one item into scratch (appended and returned). userMark dedupes
// duplicate buyers within the item using the item index as an epoch
// stamp; the scan over scratch is linear but clusters-per-item is
// tiny in practice.
//
//cats:hotpath
func countMembers(buyers []UserID, epoch int32, clusterOf, userMark []int32, scratch []clusterCount) []clusterCount {
	for _, u := range buyers {
		if userMark[u] == epoch {
			continue
		}
		userMark[u] = epoch
		c := clusterOf[u]
		if c < 0 {
			continue
		}
		found := false
		for i := range scratch {
			if scratch[i].cluster == c {
				scratch[i].n++
				found = true
				break
			}
		}
		if !found {
			scratch = append(scratch, clusterCount{cluster: c, n: 1})
		}
	}
	return scratch
}

// fraudBuyerFunnel computes the Table VII-shaped funnel over the
// deduplicated fraud buyer runs: distinct risky users and repeat
// fraud buyers (2+ distinct fraud items), the same definitions
// ecom.Dataset.Stats reports so both layers agree.
func (g *Graph) fraudBuyerFunnel(rep *Report) {
	deg := make([]int32, len(g.userIDs))
	for it := range g.itemIDs {
		if !g.itemFraud[it] {
			continue
		}
		countFraudDegrees(g.buyers(it), deg)
	}
	for _, d := range deg {
		if d > 0 {
			rep.RiskyUsers++
			if d > 1 {
				rep.RepeatBuyers++
			}
		}
	}
}

// countFraudDegrees bumps each distinct buyer's fraud-item degree.
//
//cats:hotpath
func countFraudDegrees(buyers []UserID, deg []int32) {
	for _, u := range buyers {
		deg[u]++
	}
}

// riskScore combines the three cluster-evidence axes into [0,1):
// ln-damped size (2 → 0.41, 8 → 0.68, 100 → 0.82), the fraction of
// touched items that are fraud-scored, and a reliability penalty that
// approaches 1 as the members' mean ExpValue falls toward the floor
// (the paper's risky population sits below 2,000 — Fig 11).
func riskScore(size int, fraudFraction, meanExp float64) float64 {
	if size < 2 {
		return 0
	}
	l := math.Log(float64(size))
	sizeFactor := l / (1 + l)
	expFactor := 2000 / (2000 + meanExp)
	return sizeFactor * fraudFraction * expFactor
}
