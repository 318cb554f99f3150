package lint

import (
	"go/ast"
	"go/types"
)

// ArenaEscape polices the colfmt zero-copy aliasing contract
// (DESIGN.md §13): strings handed out by Dec.StringCol alias the
// decoder's arena, so they are only valid while the owner of that arena
// keeps it alive. Publishing such a string where its lifetime is the
// process — a package-level variable, anything reachable from one, or a
// package-level channel — silently pins the whole arena block (or, for
// a reused buffer, corrupts the string on the next decode). Decode
// helpers routinely pass arena strings around, so taint is tracked
// through function summaries: a helper that returns StringCol-derived
// values taints its call sites, and a helper that stores a parameter
// into a global makes passing tainted values to it a finding.
//
// Storing into locals, struct fields of locals, and returning tainted
// values are allowed — the caller owns the scope and the snapshot/
// dataset readers retain their arena by construction. The rule draws
// the line at package lifetime, where no owner exists. strings.Clone is
// the sanctioned way out: a value assigned directly from it is a fresh
// copy and leaves the taint set.
var ArenaEscape = &Analyzer{
	Name: "arena-escape",
	Doc:  "colfmt arena-aliased strings must not reach package-level variables or channels",
	Run:  runArenaEscape,
}

func runArenaEscape(p *Package, _ Config) []Diagnostic {
	var diags []Diagnostic
	for _, fn := range p.funcDecls() {
		diags = append(diags, p.lintArenaFunc(fn)...)
	}
	return diags
}

// taintSummary is the interprocedural fact about one function.
type taintSummary struct {
	results []bool // result i derives from a StringCol call inside the function
	params  []bool // a value passed as param i reaches a package-level variable
}

// arenaSourceCall reports whether call is Dec.StringCol — the only API
// that hands out arena-aliased strings.
func (p *Package) arenaSourceCall(call *ast.CallExpr) bool {
	if methodName(call) != "StringCol" {
		return false
	}
	n := namedOf(p.Info.TypeOf(recvExpr(call)))
	return n != nil && n.Obj().Name() == "Dec"
}

// taintSummaryOf computes (memoized) the arena-taint summary of a
// statically resolved function. Cycles summarize to the bottom (no
// tainted results, no escaping params).
func (p *Package) taintSummaryOf(obj types.Object) *taintSummary {
	pr := p.prog
	if s, ok := pr.taint[obj]; ok {
		return s
	}
	s := &taintSummary{}
	pr.taint[obj] = s // in-progress: recursion sees the bottom
	fi := pr.funcs[obj]
	if fi == nil {
		return s
	}
	fn, fp := fi.Decl, fi.Pkg
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return s
	}
	s.results = make([]bool, sig.Results().Len())
	s.params = make([]bool, sig.Params().Len())

	// Tainted results: run the intra-function taint flow, then look at
	// what each return statement hands back.
	tainted := fp.arenaFlow(fn, nil, true)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == len(s.results) {
			for i, res := range ret.Results {
				if fp.exprTainted(res, tainted) {
					s.results[i] = true
				}
			}
		} else if len(ret.Results) > 0 {
			// Tuple passthrough or bare return: coarse.
			for _, res := range ret.Results {
				if fp.exprTainted(res, tainted) {
					for i := range s.results {
						s.results[i] = true
					}
				}
			}
		}
		return true
	})

	// Escaping params: seed the flow from each parameter alone and see
	// whether it reaches a package-level sink.
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		seed := map[types.Object]bool{params.At(i): true}
		set := fp.arenaFlow(fn, seed, false)
		if len(fp.arenaSinks(fn, set, true)) > 0 {
			s.params[i] = true
		}
	}
	return s
}

// arenaFlow runs the assignment fixed point: starting from seed (plus,
// when withSources is set, every StringCol result), any value assigned
// from a tracked value becomes tracked, including through container
// stores (x.f = tainted taints x) and through callee summaries. Only
// objects whose type can carry a string participate — ints derived from
// tainted data cannot alias the arena.
func (p *Package) arenaFlow(fn *ast.FuncDecl, seed map[types.Object]bool, withSources bool) map[types.Object]bool {
	set := map[types.Object]bool{}
	for o := range seed {
		set[o] = true
	}
	for changed := true; changed; {
		changed = false
		add := func(e ast.Expr) {
			if e == nil {
				return
			}
			obj := p.lhsRootObj(e)
			if obj == nil || set[obj] || isPkgLevel(obj) || !typeCarriesString(obj.Type()) {
				return
			}
			set[obj] = true
			changed = true
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						if p.taintedExpr(x.Rhs[i], set, withSources) {
							add(x.Lhs[i])
						}
					}
				} else if len(x.Rhs) == 1 {
					// Tuple assignment: one tainted component taints
					// every string-carrying LHS (coarse but safe).
					if p.taintedExpr(x.Rhs[0], set, withSources) {
						for _, l := range x.Lhs {
							add(l)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range x.Values {
					if p.taintedExpr(v, set, withSources) && i < len(x.Names) {
						add(x.Names[i])
					}
				}
			case *ast.RangeStmt:
				if p.taintedExpr(x.X, set, withSources) {
					add(x.Key)
					add(x.Value)
				}
			}
			return true
		})
	}
	return set
}

// taintedExpr reports whether e carries a tracked value: it mentions a
// tracked object, contains a StringCol source (when withSources), or
// calls a function summarized as returning taint. A strings.Clone call
// is the sanctioned laundering point: its result is a fresh copy, so an
// expression that is exactly such a call is clean whatever it clones.
func (p *Package) taintedExpr(e ast.Expr, set map[types.Object]bool, withSources bool) bool {
	if e == nil {
		return false
	}
	if p.taintMentions(e, set) {
		return true
	}
	if !withSources {
		return false
	}
	for _, call := range callsIn(e) {
		if p.arenaSourceCall(call) {
			return true
		}
		if rs := p.resultTaint(call); rs != nil {
			for _, r := range rs {
				if r {
					return true
				}
			}
		}
	}
	return false
}

// taintMentions is mentionsAny specialized for taint: occurrences
// inside a sanitizer call produce a fresh copy, and occurrences inside
// len/cap produce an int, so neither subtree counts as carrying the
// arena alias onward.
func (p *Package) taintMentions(e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if p.sanitizerCall(call) {
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					return false
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok && set[p.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// sanitizerCall reports whether call copies its input out of the arena:
// strings.Clone by definition returns freshly-allocated bytes.
func (p *Package) sanitizerCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "strings" && obj.Name() == "Clone"
}

// resultTaint returns the callee's per-result taint vector, or nil for
// unresolvable callees.
func (p *Package) resultTaint(call *ast.CallExpr) []bool {
	fi, obj := p.callee(call)
	if fi == nil || obj == nil {
		return nil
	}
	return p.taintSummaryOf(obj).results
}

// exprTainted is taintedExpr with sources on — the common case.
func (p *Package) exprTainted(e ast.Expr, set map[types.Object]bool) bool {
	return p.taintedExpr(e, set, true)
}

// lhsRootObj resolves the object a store ultimately lands in: the base
// identifier of the expression, or the selected package-level variable
// for a qualified pkg.Var reference.
func (p *Package) lhsRootObj(e ast.Expr) types.Object {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
				return p.Info.Uses[sel.Sel]
			}
		}
	}
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// arenaSinks scans fn for stores of tracked values into package-level
// variables or sends on package-level channels; summaryMode suppresses
// the diagnostics and just reports existence (for param-escape
// summaries). It also flags tainted arguments passed to callees whose
// summary says the parameter escapes.
func (p *Package) arenaSinks(fn *ast.FuncDecl, set map[types.Object]bool, summaryMode bool) []Diagnostic {
	var diags []Diagnostic
	sink := func(n ast.Node, format string, args ...any) {
		diags = append(diags, p.diag(n, "arena-escape", format, args...))
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				obj := p.lhsRootObj(l)
				if obj == nil || !isPkgLevel(obj) {
					continue
				}
				r := x.Rhs[0]
				if len(x.Lhs) == len(x.Rhs) {
					r = x.Rhs[i]
				}
				// The tainted value can be the stored value or a map key
				// inside the destination expression itself.
				if p.exprTainted(r, set) || p.exprTainted(l, set) {
					sink(x, "arena-aliased string stored in package-level %s outlives its decode scope", obj.Name())
				}
			}
		case *ast.SendStmt:
			chObj := p.lhsRootObj(x.Chan)
			if chObj != nil && isPkgLevel(chObj) && p.exprTainted(x.Value, set) {
				sink(x, "arena-aliased string sent on package-level channel %s escapes its decode scope", chObj.Name())
			}
		case *ast.CallExpr:
			_, obj := p.callee(x)
			if obj == nil {
				return true
			}
			ps := p.taintSummaryOf(obj).params
			for i, arg := range x.Args {
				if i < len(ps) && ps[i] && p.exprTainted(arg, set) {
					sink(x, "arena-aliased string passed to %s, which stores its argument in a package-level variable", obj.Name())
				}
			}
		}
		return true
	})
	if summaryMode && len(diags) > 0 {
		return diags[:1]
	}
	return diags
}

// lintArenaFunc runs the flow and reports the sinks for one function.
func (p *Package) lintArenaFunc(fn *ast.FuncDecl) []Diagnostic {
	set := p.arenaFlow(fn, nil, true)
	return p.arenaSinks(fn, set, false)
}

// typeCarriesString reports whether a value of type t can hold or reach
// a string (and so can alias a decode arena). Numeric and boolean
// derivations of tainted data are pruned from the flow.
func typeCarriesString(t types.Type) bool {
	return carriesString(t, map[types.Type]bool{})
}

func carriesString(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0 || u.Kind() == types.UnsafePointer
	case *types.Slice:
		return carriesString(u.Elem(), seen)
	case *types.Array:
		return carriesString(u.Elem(), seen)
	case *types.Pointer:
		return carriesString(u.Elem(), seen)
	case *types.Chan:
		return carriesString(u.Elem(), seen)
	case *types.Map:
		return carriesString(u.Key(), seen) || carriesString(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesString(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Interface, *types.Signature:
		// A boxed or captured value could be anything: conservative.
		return true
	default:
		return false
	}
}
