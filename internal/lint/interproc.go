package lint

import (
	"go/ast"
	"go/types"
)

// This file is the shared interprocedural core behind arena-escape and
// metric-discipline. PR 3's analyzers were strictly intra-procedural;
// two contracts introduced since — colfmt arena strings passed into
// decode helpers, Vec families registered in one package and resolved
// in another — cross function and package boundaries, so the analyzers
// need to as well.
//
// The design is per-function summaries over a statically resolved call
// graph. A Program indexes every function declaration across every
// package the Runner has loaded (the Runner type-checks dependencies
// before dependents, so by the time a caller is linted its callees are
// already in the index). arena-escape derives a small summary per
// function — "result 0 aliases the arena" — computed lazily, memoized by
// *types.Func, with recursion broken conservatively: a cycle (or a
// callee outside the program, e.g. stdlib or an interface method)
// summarizes to the bottom value that never hides a finding in the
// caller but also never invents one.
type Program struct {
	funcs map[types.Object]*FuncInfo

	// taint is arena-escape's summary cache, memoized across packages. A
	// nil entry marks a summary currently being computed (a call cycle);
	// readers treat it as the conservative bottom.
	taint map[types.Object]*taintSummary

	vecs map[types.Object]*vecFamily // Vec registrations: var/field -> declared labels
}

// FuncInfo is one function declaration with the package that owns it,
// so walkers use the right *types.Info regardless of which package the
// call site lives in.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

func newProgram() *Program {
	return &Program{
		funcs: map[types.Object]*FuncInfo{},
		taint: map[types.Object]*taintSummary{},
		vecs:  map[types.Object]*vecFamily{},
	}
}

// register indexes every function declaration of a freshly loaded
// package. Called from Runner.load, so the index grows bottom-up in
// dependency order.
func (pr *Program) register(p *Package) {
	for _, fn := range p.funcDecls() {
		if obj := p.Info.Defs[fn.Name]; obj != nil {
			pr.funcs[obj] = &FuncInfo{Pkg: p, Decl: fn}
		}
	}
	p.scanVecs()
}

// callee statically resolves a call to its declaration. Calls through
// interfaces, function values, and packages outside the program (the
// standard library) resolve to nil — the conservative unknown.
func (p *Package) callee(call *ast.CallExpr) (*FuncInfo, types.Object) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil, nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return nil, nil
	}
	if fi := p.prog.funcs[obj]; fi != nil {
		return fi, obj
	}
	return nil, obj
}

// methodName returns the bare name of a method call's selector, or ""
// for non-selector calls.
func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// recvExpr returns the receiver expression of a method call, or nil.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// hasMethod reports whether named (or its pointer type) has a method
// with the given name.
func hasMethod(n *types.Named, name string) bool {
	if n == nil {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isPkgLevel reports whether obj is a package-level variable.
func isPkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	scope := v.Parent()
	return scope != nil && v.Pkg() != nil && scope == v.Pkg().Scope()
}

// callsIn yields every call expression in the subtree, nested function
// literals included.
func callsIn(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}
