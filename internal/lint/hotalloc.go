package lint

import (
	"go/ast"
	"go/types"
)

// hotallocAnalyzer guards the zero-allocation hot paths. Functions
// annotated `//detlint:hotpath` (the per-system simulation loop, the
// build's per-system census and fill, the steady state of a
// Monte-Carlo trial) must not contain allocation-causing constructs:
//
//   - fmt.* calls (interface boxing + formatting state per call; the
//     repository encodes disk serials with a fixed-width encoder instead);
//   - map literals and make(map)/make(chan) (maps also iterate
//     nondeterministically, compounding the detmap hazard);
//   - un-presized growth: make of a zero-length slice without
//     capacity, or append to a slice declared empty in the hot
//     function itself — hot loops append into caller-owned recycled
//     scratch, never into fresh buffers;
//   - &T{} / new(T): per-iteration heap escapes (components live in
//     value slabs wired by indices instead);
//   - closures capturing enclosing variables (captures force the
//     variable — and the closure — to the heap; the non-capturing
//     sort comparators in the engine stay on the stack);
//   - string <-> []byte/[]rune conversions (each copies).
//
// Amortized growth of recycled worker scratch is legitimate; such
// sites carry `//detlint:ignore hotalloc <reason>` annotations that
// double as documentation.
func hotallocAnalyzer() *Analyzer {
	return &Analyzer{
		Name:  "hotalloc",
		Doc:   "flag allocation-causing constructs in //detlint:hotpath functions",
		Match: func(string) bool { return true },
		Run:   runHotalloc,
	}
}

func runHotalloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	emptyLocals := emptySliceLocals(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, emptyLocals)
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocates in hot path %s; use recycled scratch (maps also iterate nondeterministically)", fd.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap in hot path %s; store values in recycled slabs instead", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if captured := capturedVars(pass, fd, n); len(captured) > 0 {
				pass.Reportf(n.Pos(), "closure in hot path %s captures %s; captures force heap allocation — pass state explicitly or keep the closure capture-free", fd.Name.Name, captured[0])
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, emptyLocals map[types.Object]bool) {
	// fmt.* calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates in hot path %s; use a fixed-width encoder or preformatted strings", fn.Name(), fd.Name.Name)
			return
		}
	}
	// String/byte-slice conversions: T(x) where the call is a type
	// conversion between string and []byte/[]rune.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.Info.TypeOf(call.Args[0])
		if src != nil && stringByteConversion(dst, src) {
			pass.Reportf(call.Pos(), "%s conversion copies in hot path %s", types.TypeString(dst, types.RelativeTo(pass.Types)), fd.Name.Name)
			return
		}
	}
	// Builtins.
	switch {
	case isBuiltin(pass, call.Fun, "new"):
		pass.Reportf(call.Pos(), "new(...) heap-allocates in hot path %s; use recycled value storage", fd.Name.Name)
	case isBuiltin(pass, call.Fun, "make"):
		t := pass.Info.TypeOf(call)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			pass.Reportf(call.Pos(), "make(map) allocates in hot path %s; use recycled scratch keyed by index (maps also iterate nondeterministically)", fd.Name.Name)
		case *types.Chan:
			pass.Reportf(call.Pos(), "make(chan) allocates in hot path %s", fd.Name.Name)
		case *types.Slice:
			// make([]T, 0) with no capacity: guaranteed append growth.
			// make([]T, n) / make([]T, n, c) is presized and legitimate
			// for amortized scratch growth behind a capacity check.
			if len(call.Args) == 2 && isConstZero(pass, call.Args[1]) {
				pass.Reportf(call.Pos(), "un-presized make([]T, 0) in hot path %s; every append will reallocate — presize with the known count or reuse scratch", fd.Name.Name)
			}
		}
	case isBuiltin(pass, call.Fun, "append"):
		if id, ok := call.Args[0].(*ast.Ident); ok && emptyLocals[pass.Info.ObjectOf(id)] {
			pass.Reportf(call.Pos(), "append to %s grows from zero capacity in hot path %s; pre-size it or append into caller-owned recycled scratch", id.Name, fd.Name.Name)
		}
	}
}

// emptySliceLocals collects slice variables declared with no backing
// storage inside the hot function (`var s []T`, `s := []T{}`,
// `s := []T(nil)`): appending to one of these is guaranteed growth
// allocation, unlike appends into caller-provided recycled buffers.
func emptySliceLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := pass.Info.ObjectOf(id); obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := n.Rhs[i].(type) {
				case *ast.CompositeLit:
					if len(rhs.Elts) == 0 {
						mark(id)
					}
				case *ast.Ident:
					if rhs.Name == "nil" {
						mark(id)
					}
				case *ast.CallExpr:
					// []T(nil) conversion.
					if tv, ok := pass.Info.Types[rhs.Fun]; ok && tv.IsType() && len(rhs.Args) == 1 {
						if nilID, ok := rhs.Args[0].(*ast.Ident); ok && nilID.Name == "nil" {
							mark(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// capturedVars lists variables a function literal references that are
// declared in the enclosing function (parameters, receiver, or locals
// preceding the literal) — the captures that force heap allocation.
// Package-level objects and the literal's own locals are free.
func capturedVars(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	pkgScope := pass.Types.Scope()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == pkgScope || v.Parent() == types.Universe {
			return true
		}
		// Declared inside the enclosing function but outside the
		// literal -> captured.
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			seen[v] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}

// stringByteConversion reports whether a conversion between dst and
// src copies between string and []byte/[]rune.
func stringByteConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// isConstZero reports whether e is the integer constant 0.
func isConstZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}
