package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Interprocedural layer. The PR 1 analyzers were purely intraprocedural:
// a time.Now() or an allocating append laundered through one wrapper
// function escaped them entirely. This file builds, per package, a
// call graph over the declared functions and condenses it with Tarjan's
// SCC algorithm; per-function summaries (reaches-nondeterminism,
// may-allocate, unordered-float-fold, writes-output) are then computed
// as a fixpoint over the condensation — one bottom-up pass, since every
// SCC closes only after the SCCs it calls into. Cross-package edges
// resolve against summaries of already-processed packages (packages are
// visited in import topological order; Go forbids import cycles), keyed
// by types.Func full name so source-checked and export-data views of
// the same function unify.
//
// Summaries are deliberately optimistic at the module boundary in
// partial runs: a module-local callee whose package was not loaded
// contributes nothing. The enforced gate is the full-tree run
// (`make check` / CI analyze ./...), where every module package has a
// summary; single-package invocations degrade to same-package
// interprocedural precision instead of drowning in unknown-callee
// noise.

// maxFacts bounds each summary's fact list; hot-path diagnostics only
// ever cite the first fact, the rest exist so unions stay stable.
const maxFacts = 8

// Fact is one root cause recorded in a summary: the position is always
// the original site (the time.Now call, the composite literal), however
// many wrapper layers it propagated through. Via names the summarized
// function's immediate callee the fact arrived through ("" when the
// site is in the function itself).
type Fact struct {
	Desc string
	Via  string
	Pos  token.Position
}

// String renders the fact with its root position, e.g.
// "append grows the backing array (eventq.go:166)".
func (f Fact) String() string {
	s := f.Desc + " (" + filepath.Base(f.Pos.Filename) + ":" + fmt.Sprint(f.Pos.Line) + ")"
	if f.Via != "" {
		s = "via " + f.Via + ": " + s
	}
	return s
}

// FuncSummary is the interprocedural fixpoint result for one declared
// function: the invariant-relevant behaviors of the function and of
// everything it (transitively) calls inside the module.
type FuncSummary struct {
	FullName string
	PkgPath  string
	Hotpath  bool

	// Nondet holds wall-clock / math-rand reachability witnesses.
	Nondet []Fact
	// Allocs holds may-allocate witnesses (heap allocations, boxing,
	// closures, appends, calls assumed to allocate).
	Allocs []Fact
	// Folds holds order-nondeterministic float accumulation witnesses.
	Folds []Fact
	// WritesOutput reports that the function (transitively) performs
	// user-visible output writes; WriteRoot is one witness.
	WritesOutput bool
	WriteRoot    Fact
}

// SummarySet indexes every computed summary by function full name.
type SummarySet struct {
	byName map[string]*FuncSummary
}

// Of returns the summary for fn (resolving generic instances to their
// origin), or nil when fn was not part of the analyzed tree.
func (s *SummarySet) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byName[fn.Origin().FullName()]
}

// Lookup returns the summary stored under a full name, for tests.
func (s *SummarySet) Lookup(fullName string) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.byName[fullName]
}

// Len returns the number of summarized functions.
func (s *SummarySet) Len() int { return len(s.byName) }

// ComputeSummaries builds call-graph summaries for every function
// declared in pkgs. Facts whose site carries a matching //repro:allow
// directive are dropped at collection time, so a deliberately-allowed
// cold-path allocation does not taint its callers' summaries.
func ComputeSummaries(pkgs []*Package, allows *AllowIndex) *SummarySet {
	store := &SummarySet{byName: map[string]*FuncSummary{}}
	for _, pkg := range topoPackages(pkgs) {
		summarizePackage(pkg, store, allows)
	}
	return store
}

// topoPackages orders pkgs so that every package follows the packages
// it imports (among those given). Go rejects import cycles, so the
// depth-first traversal terminates.
func topoPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	ordered := make([]*Package, 0, len(pkgs))
	seen := make(map[string]bool, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.ImportPath] {
			return
		}
		seen[p.ImportPath] = true
		if p.Pkg != nil {
			for _, imp := range p.Pkg.Imports() {
				if q, ok := byPath[imp.Path()]; ok {
					visit(q)
				}
			}
		}
		ordered = append(ordered, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ordered
}

// cgNode is one declared function during a package's fixpoint.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	base *FuncSummary // direct facts + facts inherited across packages

	locals []*types.Func // same-package callees, deduped, stable order

	// Tarjan state.
	index, lowlink int
	onStack        bool
}

// summarizePackage collects per-function facts, condenses the local
// call graph, and stores the fixpoint summaries.
func summarizePackage(pkg *Package, store *SummarySet, allows *AllowIndex) {
	nodes := map[*types.Func]*cgNode{}
	var order []*cgNode
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			n := collectFunc(pkg, fn, decl, store, allows)
			nodes[fn] = n
			order = append(order, n)
		}
	}

	for _, scc := range tarjanSCCs(order, nodes) {
		finalizeSCC(scc, nodes, store)
	}
}

// finalizeSCC unions the member base facts with the finalized summaries
// of callees outside the component and publishes one combined summary
// per member. Tarjan emits a component only after every component it
// calls into, so out-of-component callee summaries are already final.
func finalizeSCC(scc []*cgNode, nodes map[*types.Func]*cgNode, store *SummarySet) {
	inSCC := map[*types.Func]bool{}
	for _, n := range scc {
		inSCC[n.fn] = true
	}
	combined := &FuncSummary{}
	for _, n := range scc {
		mergeSummary(combined, n.base, "")
		for _, callee := range n.locals {
			if inSCC[callee] {
				continue // same component: its base merges in this loop
			}
			if cs := store.Of(callee); cs != nil {
				mergeSummary(combined, cs, displayName(callee))
			}
		}
	}
	sortFacts(combined)
	for _, n := range scc {
		s := &FuncSummary{
			FullName:     n.fn.FullName(),
			PkgPath:      n.base.PkgPath,
			Hotpath:      n.base.Hotpath,
			Nondet:       combined.Nondet,
			Allocs:       combined.Allocs,
			Folds:        combined.Folds,
			WritesOutput: combined.WritesOutput,
			WriteRoot:    combined.WriteRoot,
		}
		store.byName[n.fn.FullName()] = s
	}
}

// mergeSummary folds src's facts into dst. When via is non-empty the
// facts arrive through a call to via, which becomes the first hop
// recorded on each inherited fact. Allocation facts do not propagate
// out of a //repro:hotpath callee: that callee is checked (and flagged)
// directly by hotpathalloc, so repeating its facts at every caller
// would only cascade one root cause across the tree.
func mergeSummary(dst, src *FuncSummary, via string) {
	dst.Nondet = mergeFacts(dst.Nondet, src.Nondet, via)
	if via == "" || !src.Hotpath {
		dst.Allocs = mergeFacts(dst.Allocs, src.Allocs, via)
	}
	dst.Folds = mergeFacts(dst.Folds, src.Folds, via)
	if src.WritesOutput && !dst.WritesOutput {
		dst.WritesOutput = true
		dst.WriteRoot = reVia(src.WriteRoot, via)
	}
}

func reVia(f Fact, via string) Fact {
	if via != "" {
		f.Via = via
	}
	return f
}

func mergeFacts(dst, src []Fact, via string) []Fact {
	for _, f := range src {
		if len(dst) >= maxFacts {
			break
		}
		f = reVia(f, via)
		dup := false
		for _, g := range dst {
			if g.Desc == f.Desc && g.Pos == f.Pos {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, f)
		}
	}
	return dst
}

func sortFacts(s *FuncSummary) {
	for _, facts := range [][]Fact{s.Nondet, s.Allocs, s.Folds} {
		sort.Slice(facts, func(i, j int) bool {
			a, b := facts[i].Pos, facts[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Column < b.Column
		})
	}
}

// tarjanSCCs returns the strongly connected components of the local
// call graph in reverse topological order of the condensation (callees'
// components before callers'), which is exactly the order the fixpoint
// needs. Iterative to be safe on deep call chains.
func tarjanSCCs(order []*cgNode, nodes map[*types.Func]*cgNode) [][]*cgNode {
	index := 1
	var stack []*cgNode
	var sccs [][]*cgNode

	type frame struct {
		n    *cgNode
		edge int
	}
	for _, root := range order {
		if root.index != 0 {
			continue
		}
		work := []frame{{n: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			n := fr.n
			if fr.edge == 0 {
				n.index = index
				n.lowlink = index
				index++
				stack = append(stack, n)
				n.onStack = true
			}
			advanced := false
			for fr.edge < len(n.locals) {
				callee := nodes[n.locals[fr.edge]]
				fr.edge++
				if callee == nil {
					continue
				}
				if callee.index == 0 {
					work = append(work, frame{n: callee})
					advanced = true
					break
				}
				if callee.onStack && callee.index < n.lowlink {
					n.lowlink = callee.index
				}
			}
			if advanced {
				continue
			}
			// All edges explored: close the node.
			if n.lowlink == n.index {
				var scc []*cgNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					m.onStack = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if n.lowlink < parent.lowlink {
					parent.lowlink = n.lowlink
				}
			}
		}
	}
	return sccs
}

// moduleLocal reports whether callee belongs to the same module as the
// analyzing package: the leading path segment matches (the module name;
// corpus packages opt in by choosing a module-shaped fake import path).
func moduleLocal(callee *types.Func, selfPkgPath string) bool {
	p := callee.Pkg()
	if p == nil {
		return false
	}
	return firstSegment(p.Path()) == firstSegment(selfPkgPath)
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// displayName renders fn compactly for diagnostics: methods as
// "(*Engine).step", package functions as "gpusim.New".
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		switch tt := t.(type) {
		case *types.Named:
			return "(" + ptr + tt.Obj().Name() + ")." + fn.Name()
		case *types.Interface:
			return fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// appendsToFirstArg reports whether fn is an external append-style
// function, which allocates only when its first argument (the
// destination slice) must grow: strconv's Append functions and
// utf8.AppendRune.
func appendsToFirstArg(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "strconv":
		return strings.HasPrefix(fn.Name(), "Append")
	case "unicode/utf8":
		return fn.Name() == "AppendRune"
	}
	return false
}

// externalMayAllocate classifies calls that leave the module. The
// allowlist is small and deliberate: pure arithmetic packages, UTF-8
// decoding (utf8.AppendRune is judged as an append instead), the
// sort.Search family (the closure argument is charged separately),
// sync locking (mutexes allocate nothing after creation), and
// time.Duration's conversion methods (simtime interoperates with
// time.Duration by design; Duration.String does allocate).
func externalMayAllocate(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	switch pkg.Path() {
	case "math", "math/bits", "unicode/utf8":
		return false
	case "sort":
		switch fn.Name() {
		case "Search", "SearchInts", "SearchFloat64s", "SearchStrings":
			return false
		}
	case "sync":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			return false
		}
	case "sync/atomic":
		return false
	case "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if named, okn := t.(*types.Named); okn &&
				named.Obj().Name() == "Duration" && fn.Name() != "String" {
				return false
			}
		}
	}
	return true
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves a call expression to the called *types.Func, or nil
// for indirect calls (function values) and builtins. Generic
// instantiations (F[T](...)) unwrap to their origin.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(f.X)
	case *ast.IndexListExpr:
		fun = unparen(f.X)
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// isConversion reports whether call is a type conversion, not a call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[unparen(call.Fun)]
	return ok && tv.IsType()
}

// builtinNameOf returns the name of the builtin being called, or "".
func builtinNameOf(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
