// Package handlelease is a catslint fixture: a registry lease taken by
// hand outside the registry, next to the scoped form and a Release that
// is no lease's.
package handlelease

import "fix/regfix"

// bare pairs the two halves itself; each call is a finding, however
// carefully the guard and the defer are written.
func bare(t *regfix.Tenant) {
	h := t.Acquire()
	if h == nil {
		return
	}
	defer h.Release()
	h.Ping()
}

// scoped holds the lease through Do: clean.
func scoped(t *regfix.Tenant) bool {
	return t.Do(func(h *regfix.Handle) { h.Ping() })
}

// free releases something no Acquire hands out: clean.
func free(s *regfix.Slot) {
	s.Release()
}
