package obs

import (
	"strings"
	"sync"
)

// PerTenant caches one pre-resolved handle set of type T per tenant
// label. Resolution takes the family locks; lookups after the first
// are a mutex-guarded map read, and callers hold the returned struct so
// their hot paths never come back here. The zero value with Resolve
// set is ready to use.
type PerTenant[T any] struct {
	// Resolve builds one tenant's handle set. The tenant it receives is
	// a process-owned string: the families retain it as a label value.
	Resolve func(tenant string) *T

	mu sync.Mutex
	m  map[string]*T
}

// For returns the tenant's handle set, resolving it on first use.
func (p *PerTenant[T]) For(tenant string) *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.m[tenant]; ok {
		return h
	}
	// The cache key and the label values live for the process; copy the
	// caller's string so a decode-arena alias (a tenant name lifted from
	// a columnar snapshot) or a request-scoped one is never pinned here.
	key := strings.Clone(tenant)
	h := p.Resolve(key)
	if p.m == nil {
		p.m = map[string]*T{}
	}
	p.m[key] = h
	return h
}
