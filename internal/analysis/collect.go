package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// collectFunc gathers one declared function's direct facts and call
// edges: the per-node input to the package fixpoint. Facts inherited
// from already-summarized packages are folded into the base summary
// here; same-package calls become graph edges resolved by the SCC
// fixpoint. Sites covered by a matching //repro:allow directive produce
// no fact at all — the suppression composes interprocedurally.
func collectFunc(pkg *Package, fn *types.Func, decl *ast.FuncDecl, store *SummarySet, allows *AllowIndex) *cgNode {
	c := &collector{
		pkg:    pkg,
		info:   pkg.TypesInfo,
		store:  store,
		allows: allows,
		node: &cgNode{
			fn:   fn,
			decl: decl,
			base: &FuncSummary{
				FullName: fn.FullName(),
				PkgPath:  pkg.ImportPath,
				Hotpath:  IsHotpath(decl),
			},
		},
		localSet: map[*types.Func]bool{},
		prealloc: map[types.Object]bool{},
		// The sanctioned float helpers may fold however they like; that
		// is the point of routing sums through them.
		floatsExempt: strings.Contains(pkg.ImportPath, "internal/floats"),
	}
	c.collectPreallocEvidence(decl.Body)
	c.walk(decl.Body)
	return c.node
}

type collector struct {
	pkg    *Package
	info   *types.Info
	store  *SummarySet
	allows *AllowIndex
	node   *cgNode

	localSet     map[*types.Func]bool
	prealloc     map[types.Object]bool
	floatsExempt bool
	stack        []ast.Node
}

func (c *collector) position(pos token.Pos) token.Position {
	return c.pkg.Fset.Position(pos)
}

func (c *collector) addAlloc(desc string, pos token.Pos) {
	p := c.position(pos)
	if c.allows.Suppresses("hotpathalloc", p) {
		return
	}
	c.node.base.Allocs = mergeFacts(c.node.base.Allocs, []Fact{{Desc: desc, Pos: p}}, "")
}

func (c *collector) addNondet(desc string, pos token.Pos) {
	p := c.position(pos)
	if c.allows.Suppresses("nodeterminism", p) {
		return
	}
	c.node.base.Nondet = mergeFacts(c.node.base.Nondet, []Fact{{Desc: desc, Pos: p}}, "")
}

func (c *collector) addFold(desc string, pos token.Pos) {
	if c.floatsExempt {
		return
	}
	p := c.position(pos)
	if c.allows.Suppresses("floatfold", p) {
		return
	}
	c.node.base.Folds = mergeFacts(c.node.base.Folds, []Fact{{Desc: desc, Pos: p}}, "")
}

// collectPreallocEvidence records objects assigned from make([]T, ...)
// or from slices.Grow: appends onto them carry capacity evidence and
// are not charged as allocations (the fault is append with no sizing
// discipline at all).
func (c *collector) collectPreallocEvidence(body ast.Node) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !c.sizesSlice(call) {
			return
		}
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := objectOf(c.info, id); obj != nil {
			c.prealloc[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Rhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Values {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
}

// sizesSlice reports whether call is sizing evidence for the slice it
// is assigned to: make([]T, ...), or slices.Grow, which reserves
// capacity on a slice the function was handed.
func (c *collector) sizesSlice(call *ast.CallExpr) bool {
	if builtinNameOf(c.info, call) == "make" {
		if len(call.Args) == 0 {
			return false
		}
		t := typeOf(c.info, call)
		if t == nil {
			return true
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice
	}
	fn := calleeOf(c.info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "slices" && fn.Name() == "Grow"
}

func (c *collector) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			c.stack = c.stack[:len(c.stack)-1]
			return true
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := unparen(node.X).(*ast.CompositeLit); ok {
					c.addAlloc("address of composite literal escapes to the heap", node.Pos())
				}
			}
		case *ast.CompositeLit:
			c.checkCompositeLit(node)
		case *ast.CallExpr:
			c.checkCall(node)
		case *ast.BinaryExpr:
			c.checkStringConcat(node)
		case *ast.FuncLit:
			c.addAlloc("function literal allocates a closure", node.Pos())
		case *ast.GoStmt:
			c.addAlloc("go statement allocates a goroutine", node.Pos())
		case *ast.AssignStmt:
			c.checkFloatFold(node)
		}
		c.stack = append(c.stack, n)
		return true
	})
}

// checkCompositeLit charges slice and map literals (their backing store
// is heap-allocated); plain struct value literals stay on the stack and
// are not charged. A literal directly under & was already charged by
// the UnaryExpr case.
func (c *collector) checkCompositeLit(lit *ast.CompositeLit) {
	if len(c.stack) > 0 {
		if u, ok := c.stack[len(c.stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return
		}
	}
	t := typeOf(c.info, lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.addAlloc("slice literal allocates its backing array", lit.Pos())
	case *types.Map:
		c.addAlloc("map literal allocates", lit.Pos())
	}
}

func (c *collector) checkCall(call *ast.CallExpr) {
	if isConversion(c.info, call) {
		c.checkConversionBoxing(call)
		return
	}
	switch builtinNameOf(c.info, call) {
	case "":
		// Not a builtin; handled below.
	case "make":
		c.addAlloc("make allocates", call.Pos())
		return
	case "new":
		c.addAlloc("new allocates", call.Pos())
		return
	case "append":
		if len(call.Args) > 0 && !c.hasPreallocEvidence(call.Args[0]) {
			c.addAlloc("append may grow the backing array", call.Pos())
		}
		return
	default:
		return // len, cap, copy, delete, min, max, panic, ...: no heap effect
	}

	callee := calleeOf(c.info, call)
	if callee == nil {
		c.addAlloc("indirect call may allocate", call.Pos())
		return
	}

	// Nondeterminism sources, wherever the calling package sits: the
	// fact propagates and is judged at simulator-package call sites.
	if pkg := callee.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "time":
			if _, bad := forbiddenTimeFuncs[callee.Name()]; bad {
				c.addNondet("calls time."+callee.Name(), call.Pos())
			}
		case "math/rand", "math/rand/v2":
			c.addNondet("calls "+pkg.Path()+"."+callee.Name(), call.Pos())
		}
	}

	c.checkArgBoxing(call)

	if name, isWrite := droppedWriteError(c.info, call); isWrite && !c.node.base.WritesOutput {
		c.node.base.WritesOutput = true
		c.node.base.WriteRoot = Fact{Desc: "writes output via " + name, Pos: c.position(call.Pos())}
	}

	// Interface methods dispatch dynamically wherever the interface is
	// declared — including this package — so this check must precede the
	// local/module classification below.
	if isInterfaceMethod(callee) {
		c.addAlloc("dynamic call to "+displayName(callee)+" may allocate", call.Pos())
		return
	}

	switch {
	case callee.Pkg() == c.pkg.Pkg:
		if !c.localSet[callee] {
			c.localSet[callee] = true
			c.node.locals = append(c.node.locals, callee)
		}
	case moduleLocal(callee, c.pkg.ImportPath):
		// Cross-package: packages are summarized in import order, so a
		// loaded callee's summary is final. Unloaded module callees
		// (partial runs) contribute nothing — see the package comment.
		if cs := c.store.Of(callee); cs != nil {
			mergeSummary(c.node.base, cs, displayName(callee))
		}
	default:
		if appendsToFirstArg(callee) {
			// Judged like the append builtin: only growing the
			// destination allocates.
			if len(call.Args) > 0 && !c.hasPreallocEvidence(call.Args[0]) {
				c.addAlloc("calls "+displayName(callee)+", which may grow its destination", call.Pos())
			}
			return
		}
		if externalMayAllocate(callee) {
			c.addAlloc("calls "+displayName(callee)+", assumed to allocate", call.Pos())
		}
	}
}

// checkArgBoxing charges arguments passed as interface parameters when
// the concrete value is not pointer-shaped: those conversions box on
// the heap. Pointers, interfaces and untyped constants (the runtime
// preboxes small values) pass freely. The instantiated signature is
// used, so generic calls are judged at their concrete types.
func (c *collector) checkArgBoxing(call *ast.CallExpr) {
	tv, ok := c.info.Types[unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			st, oks := params.At(params.Len() - 1).Type().(*types.Slice)
			if !oks {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if c.boxes(pt, arg) {
			c.addAlloc("argument boxed into interface "+types.TypeString(pt, shortQualifier), arg.Pos())
		}
	}
}

func (c *collector) checkConversionBoxing(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	t := typeOf(c.info, call)
	if t != nil && c.boxes(t, call.Args[0]) {
		c.addAlloc("conversion boxes value into interface "+types.TypeString(t, shortQualifier), call.Pos())
	}
}

// boxes reports whether storing arg into an interface of type pt heap-
// allocates: pt is a true interface (not a type parameter) and arg's
// concrete type is neither pointer-shaped nor already an interface, and
// arg is not a constant.
func (c *collector) boxes(pt types.Type, arg ast.Expr) bool {
	if pt == nil {
		return false
	}
	if _, isTP := pt.(*types.TypeParam); isTP {
		return false
	}
	if !types.IsInterface(pt) {
		return false
	}
	tv, ok := c.info.Types[arg]
	if !ok || tv.Value != nil { // constants are preboxed by the runtime
		return false
	}
	at := tv.Type
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if at.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func (c *collector) checkStringConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := c.info.Types[b]
	if !ok || tv.Value != nil { // constant-folded concatenation
		return
	}
	if t, okb := tv.Type.Underlying().(*types.Basic); okb && t.Info()&types.IsString != 0 {
		c.addAlloc("string concatenation allocates", b.Pos())
	}
}

// checkFloatFold detects float accumulations whose result depends on
// iteration or operand order: a += fold under a map range (Go
// randomizes map order per run), and acc = x + acc reductions that swap
// the fold's operand order inside any loop.
func (c *collector) checkFloatFold(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		if len(as.Lhs) != 1 || !c.isFloat(as.Lhs[0]) {
			return
		}
		if rng := c.enclosingMapRange(); rng != nil && c.declaredOutside(as.Lhs[0], rng) {
			c.addFold("float accumulation folds in map iteration order", as.Pos())
		}
	case token.ASSIGN:
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			b, ok := unparen(as.Rhs[i]).(*ast.BinaryExpr)
			if !ok || b.Op != token.ADD || !c.isFloat(lhs) {
				continue
			}
			switch {
			case sameExpr(c.info, lhs, b.X):
				// Canonical left fold acc = acc + x: only the iteration
				// order can hurt it.
				if rng := c.enclosingMapRange(); rng != nil && c.declaredOutside(lhs, rng) {
					c.addFold("float accumulation folds in map iteration order", as.Pos())
				}
			case sameExpr(c.info, lhs, b.Y):
				if c.insideLoop() {
					c.addFold("float reduction reorders operands (acc = x + acc)", as.Pos())
				}
			}
		}
	}
}

func (c *collector) isFloat(e ast.Expr) bool {
	t := typeOf(c.info, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// enclosingMapRange returns the nearest enclosing `range` statement
// over a map, or nil.
func (c *collector) enclosingMapRange() *ast.RangeStmt {
	for i := len(c.stack) - 1; i >= 0; i-- {
		rng, ok := c.stack[i].(*ast.RangeStmt)
		if !ok {
			continue
		}
		if t := typeOf(c.info, rng.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return rng
			}
		}
	}
	return nil
}

func (c *collector) insideLoop() bool {
	for i := len(c.stack) - 1; i >= 0; i-- {
		switch c.stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// declaredOutside reports whether the accumulator e outlives the loop:
// an identifier declared before the range statement, or any field /
// indexed location (which always persists across iterations).
func (c *collector) declaredOutside(e ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return true
	}
	obj := objectOf(c.info, id)
	return obj != nil && obj.Pos() < rng.Pos()
}

func (c *collector) hasPreallocEvidence(first ast.Expr) bool {
	id, ok := unparen(first).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objectOf(c.info, id)
	return obj != nil && c.prealloc[obj]
}

// sameExpr reports whether a and b are syntactically the same variable
// reference: identical identifiers (same object) or identical selector
// chains over the same base.
func sameExpr(info *types.Info, a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch ax := a.(type) {
	case *ast.Ident:
		bx, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := objectOf(info, ax), objectOf(info, bx)
		return ao != nil && ao == bo
	case *ast.SelectorExpr:
		bx, ok := b.(*ast.SelectorExpr)
		return ok && ax.Sel.Name == bx.Sel.Name && sameExpr(info, ax.X, bx.X)
	}
	return false
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// shortQualifier renders package-qualified type names with the bare
// package name, keeping diagnostics readable.
func shortQualifier(p *types.Package) string { return p.Name() }

// typeOf and objectOf are the info-level versions of Pass.TypeOf /
// Pass.ObjectOf, shared with the summary collector which runs without
// a Pass.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := objectOf(info, id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
