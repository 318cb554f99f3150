// Package graph is the paper's offline co-purchase measurement: it
// mines colluding-user clusters from user→item purchase evidence at
// millions-of-users scale on one machine.
//
// The paper's measurement study (§V) finds 83,745 risky-user pairs
// sharing 2+ fraud items that collapse to just 1,056 colluding users —
// hired promotion rings that co-purchase the same campaign items over
// and over. CATS itself scores items from comment text alone, so this
// package sits beside the detector, not inside it: nothing under
// internal/core, internal/service or a serving binary imports it (make
// deps-check holds that line). It is reached through catsbench -exp
// riskyusers (the paper's funnel on the E-platform universe) and -exp
// graph (planted-ring recovery, run at up to 10M users / 100M edges).
//
// # Data model: CSR over dense ids
//
// The Builder interns users and items once (strings.Clone at the
// boundary, so no caller buffer or colfmt arena is retained) into dense
// int32 ids, then Build lays edges out as an item→buyers CSR:
// itemOff/itemEnd offsets into one flat itemUsers []UserID.
// Construction is a two-pass counting sort — count degrees, prefix-sum,
// scatter — all //cats:hotpath, zero allocations after the three make
// calls. Only fraud-scored items get their buyer runs sorted and
// deduplicated at Build; other runs stay raw because nothing walks
// them pairwise. The structure costs 8 bytes/edge + 12 bytes/item +
// interned strings.
//
// # Pair mining
//
// Mining walks only fraud-scored items (the paper's candidate set),
// skipping items with fewer than 2 buyers or more than
// Config.MaxItemDegree — a mega-item shared by thousands of organic
// buyers carries no collusion signal but would cost O(d²) pairs. Each
// surviving item's buyer run emits its d·(d−1)/2 ordered pairs into an
// open-addressing count table keyed by lo<<32|hi (key 0 is impossible
// since lo<hi, so it marks an empty slot).
//
// # Union-find and the canonical report
//
// Pairs with count ≥ Config.MinSharedItems (default 2, the paper's
// threshold) are unioned in a weighted path-halving union-find.
// Components become Clusters with size, qualifying pairs, shared fraud
// items, items touched, fraud fraction, mean ExpValue, and a risk score
// (ln s/(1+ln s)) · fraudFraction · 2000/(2000+meanExp) — bigger,
// purer, cheaper-account rings rank higher. Clusters are ordered by
// size descending, then first member ascending, with members sorted, so
// the same evidence yields the same Report whatever the edge insertion
// order.
package graph
