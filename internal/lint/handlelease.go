package lint

import (
	"go/ast"
	"go/types"
)

// HandleLease keeps the lease protocol inside the package that declares
// it. A registry handle is held through Tenant.Do, which acquires,
// defers the release and so cannot leak a handle, release it twice or
// use it after release; the bare Acquire/Release pair Do is built from
// stays exported only for bench/'s timing probe. So a call from another
// package to a method named Acquire that returns a lease, or to a
// lease's Release, is a finding — however carefully the two are paired.
var HandleLease = &Analyzer{
	Name: "handle-lease",
	Doc:  "no Acquire/Release of a registry handle outside the declaring package; hold it through Do",
	Run:  runHandleLease,
}

func runHandleLease(p *Package, _ Config) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := p.callee(call).(*types.Func)
			if !ok || fn.Pkg() == p.Pkg || (fn.Name() != "Acquire" && fn.Name() != "Release") {
				return true
			}
			sig := fn.Type().(*types.Signature)
			lease := sig.Recv() // Release is called on the lease, Acquire returns it
			if lease != nil && fn.Name() == "Acquire" && sig.Results().Len() == 1 {
				lease = sig.Results().At(0)
			}
			if lease != nil && isLease(namedOf(lease.Type())) {
				diags = append(diags, p.diag(call, "handle-lease",
					"%s called outside package %s: hold the lease through Do, which releases on every path", fn.Name(), fn.Pkg().Name()))
			}
			return true
		})
	}
	return diags
}

// isLease reports whether n is a lease type: one with a Release method
// that a method named Acquire, declared in the same package, returns.
func isLease(n *types.Named) bool {
	if !hasMethod(n, "Release") {
		return false
	}
	scope := n.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		owner, _ := scope.Lookup(name).Type().(*types.Named)
		for i := 0; owner != nil && i < owner.NumMethods(); i++ {
			m := owner.Method(i)
			if res := m.Type().(*types.Signature).Results(); m.Name() == "Acquire" && res.Len() == 1 && namedOf(res.At(0).Type()) == n {
				return true
			}
		}
	}
	return false
}
