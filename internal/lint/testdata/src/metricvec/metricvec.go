// Package metricvec is a catslint fixture: obs Vec With call sites with
// wrong arity, swapped label order, unbounded values, and a hot-path
// resolution, next to the sanctioned constant/tenant/pre-resolved
// shapes.
package metricvec

import "fix/obsvec"

// requests declares two labels, in this order.
var requests = obsvec.Default.CounterVec("fix_requests_total",
	"Requests by outcome and tenant.", "outcome", "tenant")

// preResolved pins constant labels once at package level: clean.
var preResolved = requests.With("ok", "acme")

// record uses an allowlisted identifier in declared order: clean.
func record(tenant string) {
	requests.With("ok", tenant).Inc()
}

// wrongArity passes one value to the two-label family.
func wrongArity() {
	requests.With("ok").Inc()
}

// swapped passes tenant where outcome is declared.
func swapped(tenant string) {
	requests.With(tenant, "ok").Inc()
}

// unbounded interpolates request-derived data into a label.
func unbounded(userID string) {
	requests.With("ok", userID).Inc()
}

// score is on the zero-allocation path: resolving a series here takes
// the family lock on every call.
//
//cats:hotpath
func score(tenant string, c *obsvec.Counter) {
	requests.With("ok", tenant)
	c.Inc()
}

// httpStats carries a family in a struct field; the registration in the
// composite literal still pins its arity.
type httpStats struct {
	hits *obsvec.CounterVec // route
}

func newHTTPStats(r *obsvec.Registry) *httpStats {
	return &httpStats{hits: r.CounterVec("fix_hits_total", "Hits by route.", "route")}
}

// observe resolves through the field: the first call is clean, the
// second over-supplies.
func (h *httpStats) observe(route string) {
	h.hits.With(route).Inc()
	h.hits.With(route, "GET").Inc()
}

// computed builds label values out of call results: neither the
// allowlisted operand beside the call nor the call's having no
// arguments bounds what comes back.
func computed(tenant string) {
	requests.With("ok", tenant+suffix()).Inc()
	requests.With("ok", key()).Inc()
}

func suffix() string { return "-eu" }

func key() string { return "k" }
