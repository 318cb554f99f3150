package graph

import (
	"math/rand"
	"strconv"
	"testing"
)

// benchEdges synthesizes a planted-ring population shaped like the
// catsbench graph experiment, small enough for bench-smoke.
func benchEdges(users, edges int) *Builder {
	const ringSize, itemsPerRing = 8, 6
	rings := users / 1000
	if rings < 2 {
		rings = 2
	}
	fraudItems := rings * itemsPerRing
	normalItems := edges / 32
	if normalItems < 32 {
		normalItems = 32
	}
	b := NewBuilder(Config{})
	b.Reserve(users, fraudItems+normalItems, edges)
	for i := 0; i < users; i++ {
		b.User("u"+strconv.Itoa(i), int64(100+i%5000))
	}
	for i := 0; i < fraudItems; i++ {
		b.MarkFraud(b.Item("f" + strconv.Itoa(i)))
	}
	for i := 0; i < normalItems; i++ {
		b.Item("n" + strconv.Itoa(i))
	}
	for r := 0; r < rings; r++ {
		for m := 0; m < ringSize; m++ {
			for k := 0; k < itemsPerRing; k++ {
				b.AddEdge(UserID(r*ringSize+m), ItemID(r*itemsPerRing+k))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	lo := rings * ringSize
	for b.Edges() < edges {
		b.AddEdge(UserID(lo+rng.Intn(users-lo)), ItemID(fraudItems+rng.Intn(normalItems)))
	}
	return b
}

func BenchmarkBuildCSR(b *testing.B) {
	const users, edges = 20000, 200000
	builders := make([]*Builder, b.N)
	for i := range builders {
		builders[i] = benchEdges(users, edges)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = builders[i].Build()
	}
}

func BenchmarkMinePairs(b *testing.B) {
	g := benchEdges(20000, 200000).Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _, _ := g.minePairs()
		if t.n == 0 {
			b.Fatal("no pairs mined")
		}
	}
}

func BenchmarkCluster(b *testing.B) {
	g := benchEdges(20000, 200000).Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := g.Cluster()
		if len(rep.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}
