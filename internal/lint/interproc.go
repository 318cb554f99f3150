package lint

import (
	"go/ast"
	"go/types"
)

// What crosses package boundaries here is small: metric-discipline
// resolves a Vec registered in one package at its With calls in another
// (the vecs index, filled by scanVecs as the Runner loads each package,
// dependencies before dependents). No rule computes function summaries
// or walks paths.

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
