// Package lint implements catslint, the project's invariant linter.
//
// The detection pipeline's load-bearing properties — the zero-allocation
// hot path, bit-deterministic summation order, context propagation, and
// reproducible randomness — are easy to regress with a single careless
// line (one string([]byte) conversion, one `range` over a map in a
// summation loop) and expensive to catch after the fact. This package
// turns each property into a named analyzer with file:line diagnostics,
// so the machine proves the invariants on every change instead of a
// reviewer re-deriving them.
//
// The linter is stdlib-only: packages are discovered by walking the
// module tree, parsed with go/parser, and type-checked with go/types
// using the source importer (no go/packages, no export data). Test
// files are not linted — the rules guard production code paths.
//
// Two comment conventions drive it:
//
//	//cats:hotpath
//
// in a function's doc comment marks the function as part of the
// zero-allocation hot path; the hotpath-alloc analyzer forbids
// allocating constructs inside it.
//
//	//lint:ignore <rule> <reason>
//
// on the offending line, or alone on the line directly above it,
// suppresses one rule's diagnostics for that line. The reason is
// mandatory: a suppression without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a file position.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Package is one type-checked package handed to analyzers.
type Package struct {
	Path  string // import path (module-relative for repo packages)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	vecs map[types.Object]*vecFamily // Vec registrations across every loaded package: var/field -> declared labels
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, cfg Config) []Diagnostic
}

// Config selects which packages each package-scoped rule applies to.
// Entries are import-path suffixes ("internal/stats" matches
// "repro/internal/stats"); an empty list disables the rule everywhere.
type Config struct {
	// DeterministicPkgs are packages whose outputs must be reproducible
	// run to run: no wall clock, no globally-seeded randomness
	// (no-wallclock-rand).
	DeterministicPkgs []string
	// PinnedOrderPkgs are packages whose floating-point summation order
	// is pinned for bit-identical results: no map iteration
	// (map-range-determinism).
	PinnedOrderPkgs []string
	// WallclockExemptPkgs are packages excused from no-wallclock-rand
	// even when DeterministicPkgs covers them. The observability layer
	// (internal/obs) exists to read the wall clock; naming it here —
	// instead of sprinkling inline ignores through it — keeps the
	// policy auditable in one place.
	WallclockExemptPkgs []string
	// WallclockBridges names, per package (import-path suffix, like the
	// other lists), the package-level functions that read the wall
	// clock, so a deterministic package cannot launder time.Now through
	// another package's API: calling obs.StartSpan from
	// internal/features is exactly as nondeterministic as calling
	// time.Now there, and no-wallclock-rand flags both.
	WallclockBridges map[string][]string
	// MetricLabelAllowlist names the identifiers that may appear in a
	// non-constant Vec label value (metric-discipline). Labels index a
	// metric family's in-memory series map, so every distinct value is
	// a series kept for the life of the process: only bounded inputs —
	// tenant names, route templates, status codes — belong there, and
	// this list is the single auditable statement of which variable
	// names the repository has vetted as bounded.
	MetricLabelAllowlist []string
}

// DefaultConfig is the repository's rule scoping: the segmentation,
// feature, statistics, boosted-tree, and sentiment packages are
// deterministic surfaces, and the two summation packages pin their
// float addition order.
var DefaultConfig = Config{
	DeterministicPkgs: []string{
		"internal/tokenize",
		"internal/features",
		"internal/stats",
		"internal/ml/gbt",
		"internal/sentiment",
		// The retrainer's promotion decisions must be reproducible from
		// the feedback window alone: time enters only through its
		// injected Clock and randomness only through window-hash-seeded
		// sources, so the same window always yields the same verdict.
		"internal/trainer",
	},
	PinnedOrderPkgs: []string{
		"internal/stats",
		"internal/features",
	},
	WallclockExemptPkgs: []string{
		"internal/obs",
	},
	WallclockBridges: map[string][]string{
		// obs counters are pure atomic adds and stay allowed in
		// deterministic packages; StartSpan is the layer's only
		// wall-clock entry point.
		"internal/obs": {"StartSpan"},
	},
	MetricLabelAllowlist: []string{
		// tenant names come from the operator's -models directory, route
		// is the handler's own template string, and code is an HTTP
		// status — all bounded by construction.
		"tenant", "route", "code",
	},
}

// appliesTo reports whether pkgPath matches any of the suffixes.
func appliesTo(suffixes []string, pkgPath string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// Analyzers lists every rule in the suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		MapRangeDeterminism,
		CtxPropagation,
		NoWallclockRand,
		MetricDiscipline,
	}
}

// Runner loads and lints packages. One Runner shares a FileSet, a
// type-checked package cache, and the (expensive) standard-library
// source importer across every package it lints.
type Runner struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	loaded map[string]*Package         // repo packages, keyed by import path
	vecs   map[types.Object]*vecFamily // shared by every package (metric-discipline)

	root    string // module root directory ("" until LintModule)
	modpath string // module path from go.mod
}

// NewRunner returns a Runner with an empty package cache.
func NewRunner() *Runner {
	fset := token.NewFileSet()
	return &Runner{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*types.Package{},
		loaded: map[string]*Package{},
		vecs:   map[types.Object]*vecFamily{},
	}
}

// Import implements types.Importer: module-internal paths are
// type-checked from source under the module root, everything else is
// delegated to the standard-library source importer.
func (r *Runner) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := r.pkgs[path]; ok {
		return p, nil
	}
	if r.modpath != "" && (path == r.modpath || strings.HasPrefix(path, r.modpath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, r.modpath), "/")
		p, err := r.load(filepath.Join(r.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	p, err := r.std.ImportFrom(path, r.root, 0)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = p
	return p, nil
}

// load parses and type-checks the non-test Go files of one directory
// that a default build compiles (internal/racetest declares its
// constant in two files behind opposite build tags), memoized by import path so a package reached both as a lint target
// and as a dependency is checked exactly once (two instances of the
// same package would make its types mutually incompatible).
func (r *Runner) load(dir, path string) (*Package, error) {
	if p, ok := r.loaded[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: r,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, r.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", path, typeErrs[0])
	}
	r.pkgs[path] = pkg
	p := &Package{Path: path, Dir: dir, Fset: r.fset, Files: files, Pkg: pkg, Info: info, vecs: r.vecs}
	p.scanVecs()
	r.loaded[path] = p
	return p, nil
}

// LintDir lints a single directory as a package with the given import
// path, applying every analyzer under cfg and filtering suppressions.
// Used by the fixture tests; LintModule is the whole-repo entry point.
func (r *Runner) LintDir(dir, path string, cfg Config) ([]Diagnostic, error) {
	p, err := r.load(dir, path)
	if err != nil {
		return nil, err
	}
	return lintPackage(p, cfg), nil
}

// LintModule walks the module rooted at root (the directory holding
// go.mod), lints every package, and returns all diagnostics sorted by
// position. Directories named testdata or vendor, hidden directories and
// nested modules (bench/ has a go.mod of its own; `go build ./...` and
// `go vet ./...` stop there too) are skipped.
func (r *Runner) LintModule(root string, cfg Config) ([]Diagnostic, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modpath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	r.root, r.modpath = root, modpath

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			n := d.Name()
			if n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modpath
		if rel != "." {
			path = modpath + "/" + filepath.ToSlash(rel)
		}
		p, err := r.load(dir, path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, lintPackage(p, cfg)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, nil
}

// lintPackage runs every analyzer over p and drops suppressed findings.
func lintPackage(p *Package, cfg Config) []Diagnostic {
	sup, bad := suppressions(p)
	diags := bad
	for _, a := range Analyzers() {
		for _, d := range a.Run(p, cfg) {
			if !sup.covers(d.Rule, d.File, d.Line) {
				diags = append(diags, d)
			}
		}
	}
	return diags
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// --- suppressions -----------------------------------------------------

// ignoreRe matches "//lint:ignore <rule> <reason>".
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// suppressSet records, per file, the lines covered by each rule's
// ignore comments. An ignore on line L covers diagnostics on L and L+1,
// so it works both trailing the offending line and on its own line
// directly above.
type suppressSet map[string]map[int]bool // "rule\x00file" -> lines

func (s suppressSet) covers(rule, file string, line int) bool {
	lines := s[rule+"\x00"+file]
	return lines[line] || lines[line-1]
}

// suppressions collects the ignore comments of every file in p. A
// lint:ignore without a reason is reported as a diagnostic of rule
// "lint-ignore" rather than honored.
func suppressions(p *Package) (suppressSet, []Diagnostic) {
	set := suppressSet{}
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, diagAt(pos, "lint-ignore",
						fmt.Sprintf("lint:ignore %s has no reason; a justification is mandatory", m[1])))
					continue
				}
				key := m[1] + "\x00" + pos.Filename
				if set[key] == nil {
					set[key] = map[int]bool{}
				}
				set[key][pos.Line] = true
			}
		}
	}
	return set, bad
}

func diagAt(pos token.Position, rule, msg string) Diagnostic {
	return Diagnostic{Rule: rule, Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// diag builds a Diagnostic at node n's position.
func (p *Package) diag(n ast.Node, rule, format string, args ...any) Diagnostic {
	return diagAt(p.Fset.Position(n.Pos()), rule, fmt.Sprintf(format, args...))
}

// --- shared AST/type helpers -----------------------------------------

// hotpathMarker is the doc-comment annotation marking a function as
// part of the zero-allocation hot path.
const hotpathMarker = "//cats:hotpath"

// isHotpath reports whether fn's doc comment carries //cats:hotpath.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration in the package with its
// enclosing file.
func (p *Package) funcDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// pkgFunc reports whether call is a selector call on package pkgPath
// (e.g. fmt.Sprintf) and returns the function name.
func (p *Package) pkgFunc(call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// callPkgPath reports the imported package path and function name of a
// package-selector call (obs.StartSpan → "repro/internal/obs",
// "StartSpan"), or ok=false for anything else.
func (p *Package) callPkgPath(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isBuiltin reports whether call invokes the named builtin.
func (p *Package) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// isNamedType reports whether t (after pointer deref) is the named type
// pkg.name.
func isNamedType(t types.Type, pkg, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}

// rootIdent unwraps selectors, indexing, slicing, parens, stars, and
// type assertions down to the base identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// paramObjs returns the types.Object of every parameter (and receiver)
// of fn.
func (p *Package) paramObjs(fn *ast.FuncDecl) map[types.Object]bool {
	objs := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if o := p.Info.Defs[n]; o != nil {
					objs[o] = true
				}
			}
		}
	}
	add(fn.Recv)
	if fn.Type.Params != nil {
		add(fn.Type.Params)
	}
	return objs
}

// mentionsAny reports whether expression e references any of the
// objects in objs.
func (p *Package) mentionsAny(e ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[p.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
