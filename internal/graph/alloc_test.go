package graph

import (
	"testing"

	"repro/internal/racetest"
)

// TestHotpathZeroAlloc pins the //cats:hotpath contract: with the pair
// table pre-grown, incrementing pairs and union-find operations must
// not allocate.
func TestHotpathZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("race instrumentation allocates")
	}
	tab := newPairTable(1 << 10)
	uf := newUnionFind(64)
	if n := testing.AllocsPerRun(100, func() {
		tab.inc(pairKey(3, 9))
		tab.inc(pairKey(1, 7))
		uf.union(3, 9)
		uf.find(5)
	}); n != 0 {
		t.Fatalf("hotpath allocated %.1f times per run, want 0", n)
	}
}
