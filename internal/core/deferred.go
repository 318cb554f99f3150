package core

import "sync"

// deferred is a model part that a load may leave undecoded: a columnar
// load checks the part's block as strictly as a full decode would, keeps
// its bytes, and decodes them the first time get is called — once, even
// when several goroutines ask together. Detection never reads the
// embedding or the drift sample, so a model that only scores never pays
// for them. A part from training or from a JSON load is decoded from the
// start.
type deferred[T any] struct {
	once   sync.Once
	decode func() T // nil once v holds the part
	v      T
}

// decoded wraps a part that is already in memory.
func decoded[T any](v T) *deferred[T] { return &deferred[T]{v: v} }

// later wraps a part that decode builds on first read. decode must not
// fail: the load that deferred it has already checked everything the
// decode checks.
func later[T any](decode func() T) *deferred[T] { return &deferred[T]{decode: decode} }

// get returns the part, decoding it first if no caller has yet; nil
// receivers hold no part.
func (p *deferred[T]) get() T {
	if p == nil {
		var zero T
		return zero
	}
	p.once.Do(func() {
		if p.decode != nil {
			p.v, p.decode = p.decode(), nil
		}
	})
	return p.v
}
