// Package regfix is a catslint fixture standing in for
// internal/registry: a refcounted handle leased from a tenant through
// Do, whose own Acquire and Release calls are inside the declaring
// package and therefore clean.
package regfix

// Handle is a stand-in refcounted model lease.
type Handle struct{ refs int }

// Release returns the lease.
func (h *Handle) Release() { h.refs-- }

// Ping is a stand-in use of the leased model.
func (h *Handle) Ping() {}

// Tenant hands out handles.
type Tenant struct{ cur *Handle }

// Acquire leases the current handle, or nil when the tenant is closed.
func (t *Tenant) Acquire() *Handle {
	if t.cur != nil {
		t.cur.refs++
	}
	return t.cur
}

// Do runs fn under a lease.
func (t *Tenant) Do(fn func(*Handle)) bool {
	h := t.Acquire()
	if h == nil {
		return false
	}
	defer h.Release()
	fn(h)
	return true
}

// Slot has a Release method and is no lease: nothing Acquires one.
type Slot struct{ free bool }

// Release frees the slot.
func (s *Slot) Release() { s.free = true }
