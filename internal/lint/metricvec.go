package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
)

// MetricDiscipline enforces the obs Vec label contract at With call
// sites. A Vec family declares its label keys once, at registration;
// every With must then supply exactly that many values, in that order.
// The runtime panics on an arity mismatch — this analyzer moves that
// failure to lint time — but it cannot catch swapped values or
// unbounded ones: each distinct label tuple is a series kept for the
// life of the process, so interpolating request-derived data (user IDs,
// URLs, free text) into a label is a slow memory leak with a cardinality
// explosion on the scrape side. Label values must be compile-time
// constants or identifiers the repository has vetted as bounded
// (Config.MetricLabelAllowlist — tenant names, route templates, status
// codes).
//
// With inside a //cats:hotpath function is always a finding: With takes
// the family's series lock to intern the tuple, so hot paths must
// pre-resolve their handles once (per process or per tenant) and hold
// the returned Counter/Gauge/Histogram, which is a lock-free atomic.
var MetricDiscipline = &Analyzer{
	Name: "metric-discipline",
	Doc:  "obs Vec With calls must match declared label arity/order with bounded values",
	Run:  runMetricDiscipline,
}

// vecFamily records the declared label keys of one registered Vec
// variable or struct field. A nil keys slice means the registration was
// seen but its keys could not be determined statically (non-constant
// keys, ellipsis call, or conflicting re-registrations) — arity and
// order checks are skipped, value checks still apply.
type vecFamily struct {
	keys []string
}

// vecRegistration reports whether call registers a Vec family
// (CounterVec/GaugeVec/HistogramVec returning a With-carrying type) and
// extracts its declared keys.
func (p *Package) vecRegistration(call *ast.CallExpr) (*vecFamily, bool) {
	var skip int
	switch methodName(call) {
	case "CounterVec", "GaugeVec":
		skip = 2 // name, help
	case "HistogramVec":
		skip = 3 // name, help, buckets
	default:
		return nil, false
	}
	if !hasMethod(namedOf(p.Info.TypeOf(call)), "With") {
		return nil, false
	}
	if call.Ellipsis.IsValid() || len(call.Args) < skip {
		return &vecFamily{}, true
	}
	keys := make([]string, 0, len(call.Args)-skip)
	for _, arg := range call.Args[skip:] {
		tv := p.Info.Types[arg]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			return &vecFamily{}, true
		}
		keys = append(keys, constant.StringVal(tv.Value))
	}
	return &vecFamily{keys: keys}, true
}

// vecRef resolves the variable or struct field an expression denotes —
// the shared key between registration sites and With receivers.
func (p *Package) vecRef(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := p.Info.Defs[x]; o != nil {
			return o
		}
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	}
	return nil
}

// scanVecs indexes every Vec registration in the package — assignments
// to variables, var specs, and struct-literal fields — into vecs, the
// family table every package of the run shares. Called at load time so
// registrations in dependency packages are indexed before their users
// are linted.
func (p *Package) scanVecs() {
	record := func(obj types.Object, fam *vecFamily) {
		if obj == nil {
			return
		}
		if prev, ok := p.vecs[obj]; ok && prev.keys != nil && fam.keys != nil {
			if !equalStrings(prev.keys, fam.keys) {
				p.vecs[obj] = &vecFamily{} // conflicting registrations: unknown
			}
			return
		}
		p.vecs[obj] = fam
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i := range x.Lhs {
					if call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr); ok {
						if fam, ok := p.vecRegistration(call); ok {
							record(p.vecRef(x.Lhs[i]), fam)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range x.Values {
					if call, ok := ast.Unparen(v).(*ast.CallExpr); ok && i < len(x.Names) {
						if fam, ok := p.vecRegistration(call); ok {
							record(p.vecRef(x.Names[i]), fam)
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range x.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if call, ok := ast.Unparen(kv.Value).(*ast.CallExpr); ok {
						if fam, ok := p.vecRegistration(call); ok {
							record(p.vecRef(kv.Key), fam)
						}
					}
				}
			}
			return true
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// withCall reports whether call is Vec.With — a method named With on a
// named type whose name ends in "Vec".
func (p *Package) withCall(call *ast.CallExpr) bool {
	if methodName(call) != "With" {
		return false
	}
	n := namedOf(p.Info.TypeOf(recvExpr(call)))
	return n != nil && len(n.Obj().Name()) > 3 && n.Obj().Name()[len(n.Obj().Name())-3:] == "Vec"
}

func runMetricDiscipline(p *Package, cfg Config) []Diagnostic {
	var diags []Diagnostic

	// Arity, order, and value checks apply everywhere a With appears,
	// including package-level pre-resolved handles.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.withCall(call) {
				return true
			}
			diags = append(diags, p.lintWith(call, cfg)...)
			return true
		})
	}

	// The hotpath rule needs the enclosing function.
	for _, fn := range p.funcDecls() {
		if !isHotpath(fn) {
			continue
		}
		for _, call := range callsIn(fn.Body) {
			if p.withCall(call) {
				diags = append(diags, p.diag(call, "metric-discipline",
					"With inside //cats:hotpath %s takes the series lock; pre-resolve the handle outside the hot path", fn.Name.Name))
			}
		}
	}
	return diags
}

// lintWith checks one With call site against its family's declaration
// and the bounded-value policy.
func (p *Package) lintWith(call *ast.CallExpr, cfg Config) []Diagnostic {
	var diags []Diagnostic
	var fam *vecFamily
	if obj := p.vecRef(recvExpr(call)); obj != nil {
		fam = p.vecs[obj]
	}
	if fam != nil && fam.keys != nil && !call.Ellipsis.IsValid() {
		if len(call.Args) != len(fam.keys) {
			diags = append(diags, p.diag(call, "metric-discipline",
				"With has %d label values; the family declares %d (%s)",
				len(call.Args), len(fam.keys), quoteJoin(fam.keys)))
		}
	}
	for i, arg := range call.Args {
		if p.Info.Types[arg].Value != nil {
			continue // compile-time constant: bounded by definition
		}
		if bad := p.unboundedOperand(arg, cfg.MetricLabelAllowlist); bad != nil {
			diags = append(diags, p.diag(arg, "metric-discipline",
				"label value depends on %s, which is neither a constant nor an allowlisted bounded identifier", types.ExprString(bad)))
			continue
		}
		// Order heuristic: an allowlisted identifier whose name matches a
		// declared key at a different position is almost certainly a
		// swapped argument list.
		if fam == nil || fam.keys == nil || i >= len(fam.keys) {
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && fam.keys[i] != id.Name {
			for j, k := range fam.keys {
				if k == id.Name && j != i {
					diags = append(diags, p.diag(arg, "metric-discipline",
						"label value %s is at position %d but the family declares %q at position %d",
						id.Name, i, k, j))
				}
			}
		}
	}
	return diags
}

// unboundedOperand returns the first operand of label value e that is
// not bounded, or nil: a compile-time constant is, an allowlisted
// identifier is, a field selected from one is, and so is what + builds
// from those. Everything else — another variable, a call's result
// whatever its arguments, an index expression — can take any value.
func (p *Package) unboundedOperand(e ast.Expr, allow []string) ast.Expr {
	e = ast.Unparen(e)
	if p.Info.Types[e].Value != nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if bad := p.unboundedOperand(x.X, allow); bad != nil {
			return bad
		}
		return p.unboundedOperand(x.Y, allow)
	case *ast.SelectorExpr:
		if p.unboundedOperand(x.X, allow) == nil {
			return nil
		}
	case *ast.Ident:
		if slices.Contains(allow, x.Name) {
			return nil
		}
	}
	return e
}

func quoteJoin(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += `"` + s + `"`
	}
	return out
}
