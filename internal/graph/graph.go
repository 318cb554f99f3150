package graph

import (
	"sort"
	"strings"

	"repro/internal/ecom"
)

// UserID is a dense interned user index.
type UserID int32

// ItemID is a dense interned item index.
type ItemID int32

// Config tunes graph construction and mining.
type Config struct {
	// MinSharedItems is how many fraud-scored items a user pair must
	// share before it qualifies as collusive; <= 0 means 2 (the
	// paper's threshold).
	MinSharedItems int
	// MaxItemDegree caps pair emission per item: a fraud-scored item
	// with more distinct buyers than this is skipped by the pair miner
	// (a mega-item shared by thousands of buyers carries no collusion
	// signal but would emit O(d²) pairs); <= 0 means 256.
	MaxItemDegree int
	// MinClusterSize drops smaller components from the report;
	// <= 0 means 2 (a single qualifying pair is already a cluster).
	MinClusterSize int
}

func (c Config) withDefaults() Config {
	if c.MinSharedItems <= 0 {
		c.MinSharedItems = 2
	}
	if c.MaxItemDegree <= 0 {
		c.MaxItemDegree = 256
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = 2
	}
	return c
}

// Builder accumulates evidence edges before the CSR build. It is not
// safe for concurrent use; build the graph once, then share it freely
// (Graph is immutable).
type Builder struct {
	cfg Config

	userIdx map[string]UserID
	itemIdx map[string]ItemID

	userIDs   []string // dense id -> user id string (process-owned copies)
	userExp   []int64  // first-seen ExpValue per user
	itemIDs   []string
	itemFraud []bool

	edgeUsers []UserID
	edgeItems []ItemID
}

// NewBuilder returns an empty builder.
func NewBuilder(cfg Config) *Builder {
	return &Builder{
		cfg:     cfg.withDefaults(),
		userIdx: map[string]UserID{},
		itemIdx: map[string]ItemID{},
	}
}

// Reserve pre-sizes the builder for the given population, so bulk
// loads (the 100M-edge benchmark) grow nothing mid-stream.
func (b *Builder) Reserve(users, items, edges int) {
	if cap(b.userIDs) < users {
		ids := make([]string, len(b.userIDs), users)
		copy(ids, b.userIDs)
		b.userIDs = ids
		exp := make([]int64, len(b.userExp), users)
		copy(exp, b.userExp)
		b.userExp = exp
	}
	if cap(b.itemIDs) < items {
		ids := make([]string, len(b.itemIDs), items)
		copy(ids, b.itemIDs)
		b.itemIDs = ids
		fr := make([]bool, len(b.itemFraud), items)
		copy(fr, b.itemFraud)
		b.itemFraud = fr
	}
	if cap(b.edgeUsers) < edges {
		eu := make([]UserID, len(b.edgeUsers), edges)
		copy(eu, b.edgeUsers)
		b.edgeUsers = eu
		ei := make([]ItemID, len(b.edgeItems), edges)
		copy(ei, b.edgeItems)
		b.edgeItems = ei
	}
}

// User interns a user id, recording its ExpValue on first sight (the
// platform reliability score used for per-cluster stats). The string
// is cloned once at the intern boundary: callers may pass strings
// aliasing a colfmt decode arena (dataset streaming), and the intern
// table must never pin an arena block for the graph's lifetime.
func (b *Builder) User(id string, expValue int64) UserID {
	if u, ok := b.userIdx[id]; ok {
		return u
	}
	owned := strings.Clone(id)
	u := UserID(len(b.userIDs))
	b.userIdx[owned] = u
	b.userIDs = append(b.userIDs, owned)
	b.userExp = append(b.userExp, expValue)
	return u
}

// Item interns an item id, cloning it at the boundary like User.
func (b *Builder) Item(id string) ItemID {
	if it, ok := b.itemIdx[id]; ok {
		return it
	}
	owned := strings.Clone(id)
	it := ItemID(len(b.itemIDs))
	b.itemIdx[owned] = it
	b.itemIDs = append(b.itemIDs, owned)
	b.itemFraud = append(b.itemFraud, false)
	return it
}

// MarkFraud flags an item as fraud-scored: only flagged items feed
// the pair miner.
func (b *Builder) MarkFraud(it ItemID) { b.itemFraud[it] = true }

// AddEdge records one user→item evidence edge (a comment or order).
// Duplicate edges are fine: buyer lists are deduplicated per item
// before mining.
func (b *Builder) AddEdge(u UserID, it ItemID) {
	b.edgeUsers = append(b.edgeUsers, u)
	b.edgeItems = append(b.edgeItems, it)
}

// Users returns the number of interned users so far.
func (b *Builder) Users() int { return len(b.userIDs) }

// Items returns the number of interned items so far.
func (b *Builder) Items() int { return len(b.itemIDs) }

// Edges returns the number of edges added so far.
func (b *Builder) Edges() int { return len(b.edgeUsers) }

// Graph is the immutable CSR bipartite adjacency: for every item, the
// contiguous run itemUsers[itemOff[i]:itemEnd[i]] is its buyer list.
// Fraud-scored items' runs are sorted and deduplicated at build (they
// are the mined surface); other items keep raw insertion order, and
// their duplicates are tolerated by every consumer.
type Graph struct {
	cfg Config

	userIDs   []string
	userExp   []int64
	itemIDs   []string
	itemFraud []bool

	itemOff   []int64
	itemEnd   []int64
	itemUsers []UserID

	edges      int
	fraudItems int
}

// Build freezes the builder into a CSR graph. The builder's edge
// arrays are consumed (the scatter reuses one of them as scratch);
// the builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	g := &Graph{
		cfg:     b.cfg,
		userIDs: b.userIDs, userExp: b.userExp,
		itemIDs: b.itemIDs, itemFraud: b.itemFraud,
		edges: len(b.edgeUsers),
	}
	items := len(b.itemIDs)
	// Counting sort by item: degree count, prefix sum, scatter.
	g.itemOff = make([]int64, items+1)
	counts := make([]int64, items)
	countDegrees(b.edgeItems, counts)
	var total int64
	for i, c := range counts {
		g.itemOff[i] = total
		total += c
	}
	g.itemOff[items] = total
	next := counts // reuse as the scatter cursor
	copy(next, g.itemOff[:items])
	g.itemUsers = make([]UserID, total)
	scatterEdges(b.edgeItems, b.edgeUsers, next, g.itemUsers)
	g.itemEnd = next // after the scatter, next[i] == end of item i's run

	// Sort + dedupe the fraud-scored buyer lists: the pair miner wants
	// ascending unique ids (so packed pair keys are canonical), and the
	// funnel stats want distinct-buyer semantics.
	for it := 0; it < items; it++ {
		if !g.itemFraud[it] {
			continue
		}
		g.fraudItems++
		run := g.itemUsers[g.itemOff[it]:g.itemEnd[it]]
		sortUserIDs(run)
		g.itemEnd[it] = g.itemOff[it] + int64(dedupeSorted(run))
	}
	b.edgeUsers, b.edgeItems = nil, nil
	return g
}

// countDegrees tallies per-item edge counts into counts.
//
//cats:hotpath
func countDegrees(edgeItems []ItemID, counts []int64) {
	for _, it := range edgeItems {
		counts[it]++
	}
}

// scatterEdges places every edge's user into its item's CSR run.
// next carries each item's write cursor and finishes as the run ends.
//
//cats:hotpath
func scatterEdges(edgeItems []ItemID, edgeUsers []UserID, next []int64, itemUsers []UserID) {
	for k, it := range edgeItems {
		itemUsers[next[it]] = edgeUsers[k]
		next[it]++
	}
}

// dedupeSorted compacts consecutive duplicates in a sorted run and
// returns the unique length.
//
//cats:hotpath
func dedupeSorted(run []UserID) int {
	if len(run) == 0 {
		return 0
	}
	w := 1
	for i := 1; i < len(run); i++ {
		if run[i] != run[w-1] {
			run[w] = run[i]
			w++
		}
	}
	return w
}

// sortUserIDs sorts a buyer run ascending.
func sortUserIDs(run []UserID) {
	sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
}

// Users returns the number of interned users.
func (g *Graph) Users() int { return len(g.userIDs) }

// Items returns the number of interned items.
func (g *Graph) Items() int { return len(g.itemIDs) }

// Edges returns the number of evidence edges.
func (g *Graph) Edges() int { return g.edges }

// FraudItems returns the number of fraud-scored items.
func (g *Graph) FraudItems() int { return g.fraudItems }

// buyers returns item it's buyer run.
func (g *Graph) buyers(it int) []UserID {
	return g.itemUsers[g.itemOff[it]:g.itemEnd[it]]
}

// FromDataset builds a graph from a labeled dataset: one edge per
// comment, with fraudScored deciding which items feed the pair miner
// (ground-truth labels in the experiments).
func FromDataset(ds *ecom.Dataset, fraudScored func(*ecom.Item) bool, cfg Config) *Graph {
	b := NewBuilder(cfg)
	for i := range ds.Items {
		item := &ds.Items[i]
		it := b.Item(item.ID)
		if fraudScored(item) {
			b.MarkFraud(it)
		}
		for j := range item.Comments {
			c := &item.Comments[j]
			b.AddEdge(b.User(c.UserID, c.ExpVal), it)
		}
	}
	return b.Build()
}
