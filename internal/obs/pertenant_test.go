package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestPerTenantResolvesOncePerTenant: concurrent For calls share one
// resolution per label, and the label Resolve retains is a copy, never
// the caller's (possibly arena-aliased) string.
func TestPerTenantResolvesOncePerTenant(t *testing.T) {
	type handles struct{ tenant string }
	var resolved atomic.Int64
	p := PerTenant[handles]{Resolve: func(tenant string) *handles {
		resolved.Add(1)
		return &handles{tenant: tenant}
	}}
	names := []string{"taobao", "eplatform"}
	got := make([][2]*handles, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, n := range names {
				got[g][i] = p.For(n)
			}
		}(g)
	}
	wg.Wait()
	if n := resolved.Load(); n != int64(len(names)) {
		t.Fatalf("Resolve ran %d times, want %d", n, len(names))
	}
	for g := range got {
		for i, n := range names {
			h := got[g][i]
			if h != got[0][i] || h.tenant != n {
				t.Fatalf("goroutine %d tenant %q: handle %p (%q), want %p", g, n, h, h.tenant, got[0][i])
			}
			if unsafe.StringData(h.tenant) == unsafe.StringData(n) {
				t.Fatalf("tenant %q: retained label aliases the caller's string", n)
			}
		}
	}
}
