package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readerAllowlist names the internal/ declarations that no program
// reaches but a test keeps as a reference implementation or oracle,
// keyed as the guard reports them: "pkg.Name" for a package-level
// declaration, "pkg.Type.Name" for a method, field or interface method
// (pkg is the import path below internal/). Each value is
// "TestName: reason", and TestName must be a test function of the
// declaring package.
var readerAllowlist = map[string]string{}

// TestEveryDeclarationHasAReader is the reader guard: every declaration
// under internal/ (funcs, methods, types, struct fields, consts, vars
// and interface methods, exported or not) must be reachable from some
// program of the module, or be on readerAllowlist. A declaration only
// its own tests reach computes none of the paper's statistics: delete
// it and port its tests to what remains, or allowlist it with the test
// that uses it as an oracle. internal/faultinject (a test-only seam
// package) and the lint fixtures under testdata are out of scope.
//
// Reachability is a conservative whole-program walk over the non-test
// files (bench/ included). The roots are main in every main package
// (cmd/, examples/, bench/), every init, every _ declaration and every
// //go:embed variable. From each reached declaration the walk follows
// the objects its body uses, to a fixpoint, and also counts as reached:
//   - a method of T when a value of T (or a value holding one) is
//     converted to an interface, and T's method set satisfies either a
//     module interface whose method of that name reachable code calls,
//     or any named standard-library interface with that method (the
//     standard library's callers, fmt and encoding/json among them,
//     are not visible to the walk);
//   - a struct field that a reached body selects, that carries a tag
//     (encoding/json reads it by reflection), or whose struct appears in
//     an unkeyed composite literal or an == comparison.
//
// A method, field or interface method is reported only when its type is
// reached; an unreached type is reported on its own.
func TestEveryDeclarationHasAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repository type-check in -short mode")
	}
	l := getLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	internal := l.module + "/internal/"
	r := newReach(l.module, pkgs)
	r.run()

	var unread []string
	declared := map[string]*Package{}
	for obj, d := range r.decls {
		if !strings.HasPrefix(d.pkg.Path, internal) ||
			strings.HasPrefix(d.pkg.Path, internal+"faultinject") ||
			strings.HasPrefix(d.pkg.Path, internal+"lint/testdata") {
			continue
		}
		if d.owner != nil && !r.seen[d.owner] {
			continue // the unreached type is reported instead
		}
		key := strings.TrimPrefix(d.pkg.Path, internal) + "." + d.name
		declared[key] = d.pkg
		_, allowed := readerAllowlist[key]
		switch {
		case r.seen[obj] && allowed:
			t.Errorf("%s is reached by a program; drop it from readerAllowlist", key)
		case !r.seen[obj] && !allowed:
			unread = append(unread, key+" ("+d.pkg.Fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is reached by no program, only by tests: delete it or add it to readerAllowlist with the test that uses it", u)
	}
	for key, why := range readerAllowlist {
		pkg, ok := declared[key]
		if !ok {
			t.Errorf("readerAllowlist names %s, which is not declared", key)
			continue
		}
		name, _, _ := strings.Cut(why, ":")
		if !strings.HasPrefix(name, "Test") || !hasTestFunc(t, pkg.Dir, name) {
			t.Errorf("readerAllowlist entry %s must start with a test of its package and a reason, got %q", key, why)
		}
	}
}

// hasTestFunc reports whether a _test.go file in dir declares func name.
func hasTestFunc(t *testing.T, dir, name string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// declNode is one declaration the walk can reach: the syntax to walk
// when it is, and the key it is reported under.
type declNode struct {
	pkg   *Package
	node  ast.Node     // FuncDecl, ValueSpec, TypeSpec or Field
	name  string       // "Name" or "Type.Name"
	owner types.Object // the type declaring a method, field or interface method
}

// reach is the whole-program reachability walk.
type reach struct {
	module string
	decls  map[types.Object]declNode
	roots  []func()

	seen  map[types.Object]bool
	queue []types.Object

	converted map[types.Type]bool // concrete types converted to an interface
	convList  []types.Type
	calledIfc []*types.Func                 // reached module interface methods
	stdIfc    map[string][]*types.Interface // standard-library interfaces by method name
}

func newReach(module string, pkgs []*Package) *reach {
	r := &reach{
		module:    module,
		decls:     map[types.Object]declNode{},
		seen:      map[types.Object]bool{},
		converted: map[types.Type]bool{},
		stdIfc:    map[string][]*types.Interface{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				r.declare(pkg, d)
			}
		}
	}
	r.collectStdInterfaces(pkgs)
	return r
}

// declare registers the declarations of one top-level decl and queues
// the roots among them.
func (r *reach) declare(pkg *Package, d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := pkg.Info.Defs[d.Name]
		switch {
		case d.Recv == nil && d.Name.Name == "init",
			d.Recv == nil && d.Name.Name == "main" && pkg.Types.Name() == "main":
			r.roots = append(r.roots, func() { r.walk(pkg, d) })
			return
		case d.Recv == nil:
			r.decls[obj] = declNode{pkg: pkg, node: d, name: d.Name.Name}
		default:
			recv := obj.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named := recv.(*types.Named)
			r.decls[obj] = declNode{pkg: pkg, node: d, name: named.Obj().Name() + "." + d.Name.Name, owner: named.Obj()}
		}
	case *ast.GenDecl:
		embed := hasEmbed(d.Doc)
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, name := range s.Names {
					obj := pkg.Info.Defs[name]
					switch {
					case name.Name == "_":
						r.roots = append(r.roots, func() { r.walk(pkg, s) })
					case obj != nil:
						r.decls[obj] = declNode{pkg: pkg, node: s, name: name.Name}
						if embed || hasEmbed(s.Doc) {
							r.roots = append(r.roots, func() { r.mark(obj) })
						}
					}
				}
			case *ast.TypeSpec:
				if s.Name.Name == "_" {
					r.roots = append(r.roots, func() { r.walk(pkg, s) })
					continue
				}
				obj := pkg.Info.Defs[s.Name]
				r.decls[obj] = declNode{pkg: pkg, node: s, name: s.Name.Name}
				r.declareMembers(pkg, obj, s)
			}
		}
	}
}

// hasEmbed reports whether a doc comment holds a //go:embed directive
// (CommentGroup.Text drops directives, so the raw lines are read).
func hasEmbed(doc *ast.CommentGroup) bool {
	if doc != nil {
		for _, c := range doc.List {
			if strings.HasPrefix(c.Text, "//go:embed ") {
				return true
			}
		}
	}
	return false
}

// declareMembers registers a named type's struct fields or interface
// methods. A tagged field is a root: encoding/json reads it by
// reflection.
func (r *reach) declareMembers(pkg *Package, obj types.Object, s *ast.TypeSpec) {
	switch tt := s.Type.(type) {
	case *ast.StructType:
		st := obj.Type().Underlying().(*types.Struct)
		i := 0
		for _, field := range tt.Fields.List {
			for k := 0; k < max(1, len(field.Names)); k++ {
				fv := st.Field(i)
				if fv.Name() != "_" {
					r.decls[fv] = declNode{pkg: pkg, node: field, name: obj.Name() + "." + fv.Name(), owner: obj}
				}
				if st.Tag(i) != "" {
					r.roots = append(r.roots, func() { r.mark(fv) })
				}
				i++
			}
		}
	case *ast.InterfaceType:
		for _, field := range tt.Methods.List {
			for _, name := range field.Names {
				r.decls[pkg.Info.Defs[name]] = declNode{pkg: pkg, node: field, name: obj.Name() + "." + name.Name, owner: obj}
			}
		}
	}
}

// collectStdInterfaces indexes every named, non-generic interface of
// the standard-library packages the module imports (error included) by
// method name: a module type converted to an interface may reach any of
// them through a standard-library caller the walk cannot see.
func (r *reach) collectStdInterfaces(pkgs []*Package) {
	add := func(tn *types.TypeName) {
		it, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			r.stdIfc[name] = append(r.stdIfc[name], it)
		}
	}
	add(types.Universe.Lookup("error").(*types.TypeName))
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if !r.inModule(p) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
}

func (r *reach) inModule(p *types.Package) bool {
	return p != nil && (p.Path() == r.module || strings.HasPrefix(p.Path(), r.module+"/"))
}

// run walks from the roots to a fixpoint.
func (r *reach) run() {
	for _, root := range r.roots {
		root()
	}
	for {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.visit(obj)
		}
		r.dispatch()
		if len(r.queue) == 0 {
			return
		}
	}
}

// mark records obj as reached.
func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	case *types.Const, *types.TypeName:
	default:
		return
	}
	if r.seen[obj] || !r.inModule(obj.Pkg()) {
		return
	}
	r.seen[obj] = true
	r.queue = append(r.queue, obj)
}

// visit walks a reached declaration's syntax.
func (r *reach) visit(obj types.Object) {
	r.markType(obj.Type())
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.calledIfc = append(r.calledIfc, fn)
		}
	}
	d, ok := r.decls[obj]
	if !ok {
		return
	}
	switch n := d.node.(type) {
	case *ast.TypeSpec:
		// Members are reached on their own: walk only what the type
		// itself names (embedded interfaces, or the whole non-struct,
		// non-interface type expression).
		switch tt := n.Type.(type) {
		case *ast.StructType:
		case *ast.InterfaceType:
			for _, field := range tt.Methods.List {
				if len(field.Names) == 0 {
					r.walk(d.pkg, field.Type)
				}
			}
		default:
			r.walk(d.pkg, n.Type)
		}
	case *ast.Field:
		r.walk(d.pkg, n.Type)
	default:
		r.walk(d.pkg, n)
	}
}

// markType marks the named types a reached object's type spells.
func (r *reach) markType(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		r.mark(t.Origin().Obj())
	case *types.Pointer:
		r.markType(t.Elem())
	case *types.Slice:
		r.markType(t.Elem())
	case *types.Array:
		r.markType(t.Elem())
	case *types.Chan:
		r.markType(t.Elem())
	case *types.Map:
		r.markType(t.Key())
		r.markType(t.Elem())
	case *types.Signature:
		r.markType(t.Params())
		r.markType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.markType(t.At(i).Type())
		}
	}
}

// dispatch marks the methods of interface-converted types that a
// dynamic call may reach.
func (r *reach) dispatch() {
	for _, t := range r.convList {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			m := sel.Obj().(*types.Func)
			if r.seen[m.Origin()] || !r.dynamic(t, m.Name()) {
				continue
			}
			r.mark(m)
			r.markPath(t, sel.Index())
		}
	}
}

// dynamic reports whether an interface call may reach t's method name.
func (r *reach) dynamic(t types.Type, name string) bool {
	for _, im := range r.calledIfc {
		if im.Name() == name && types.Implements(t, im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
			return true
		}
	}
	for _, it := range r.stdIfc[name] {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}

// markPath marks the embedded fields a promoted selection passes
// through.
func (r *reach) markPath(t types.Type, index []int) {
	for _, i := range index[:len(index)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		r.mark(f)
		t = f.Type()
	}
}

// convert records a concrete type converted to an interface, with the
// types its values hold (reflection-driven callers such as fmt and
// encoding/json reach those too). A named type counts as both T and *T.
func (r *reach) convert(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		if r.converted[t] || !r.inModule(t.Obj().Pkg()) {
			return
		}
		r.converted[t] = true
		r.convList = append(r.convList, t, types.NewPointer(t))
		r.convert(t.Underlying())
	case *types.Pointer:
		r.convert(t.Elem())
	case *types.Slice:
		r.convert(t.Elem())
	case *types.Array:
		r.convert(t.Elem())
	case *types.Map:
		r.convert(t.Key())
		r.convert(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.convert(t.Field(i).Type())
		}
	}
}

// assign records the conversion of a value of type from to type to.
func (r *reach) assign(to, from types.Type) {
	if to != nil && from != nil && types.IsInterface(to) && !types.IsInterface(from) {
		r.convert(from)
	}
}

// readAll marks every field of a struct type: an unkeyed literal or an
// == comparison reads them all.
func (r *reach) readAll(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			r.mark(st.Field(i))
		}
	}
}

// walk marks everything a reached syntax tree uses and records the
// interface conversions it performs.
func (r *reach) walk(pkg *Package, root ast.Node) {
	info := pkg.Info
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			return tv.Type
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				return obj.Type()
			}
			if obj := info.Defs[id]; obj != nil {
				return obj.Type()
			}
		}
		return types.Typ[types.Invalid]
	}
	// assignAll records the conversions of values to the types dst
	// lists, spreading a single tuple-valued expression.
	assignAll := func(dst func(i int) types.Type, n int, values []ast.Expr) {
		if len(values) == 1 && n > 1 {
			if tup, ok := typeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < n; i++ {
					r.assign(dst(i), tup.At(i).Type())
				}
				return
			}
		}
		for i, v := range values {
			if i < n {
				r.assign(dst(i), typeOf(v))
			}
		}
	}
	var sigs []*types.Signature
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			sigs = append(sigs, info.Defs[n.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			sigs = append(sigs, typeOf(n).(*types.Signature))
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				r.mark(obj)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok {
				r.markPath(sel.Recv(), sel.Index())
			}
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					r.assign(tv.Type, typeOf(n.Args[0]))
				}
				break
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					switch id.Name {
					case "append":
						if s, ok := typeOf(n).Underlying().(*types.Slice); ok && !n.Ellipsis.IsValid() {
							for _, a := range n.Args[1:] {
								r.assign(s.Elem(), typeOf(a))
							}
						}
					case "panic":
						r.assign(types.NewInterfaceType(nil, nil), typeOf(n.Args[0]))
					}
					break
				}
			}
			sig, ok := typeOf(n.Fun).Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			assignAll(func(i int) types.Type {
				if sig.Variadic() && i >= params.Len()-1 {
					last := params.At(params.Len() - 1).Type()
					if n.Ellipsis.IsValid() {
						return last
					}
					return last.(*types.Slice).Elem()
				}
				return params.At(i).Type()
			}, max(len(n.Args), params.Len()), n.Args)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				assignAll(func(i int) types.Type { return typeOf(n.Lhs[i]) }, len(n.Lhs), n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				to := typeOf(n.Type)
				assignAll(func(int) types.Type { return to }, len(n.Names), n.Values)
			}
		case *ast.ReturnStmt:
			if len(sigs) > 0 {
				res := sigs[len(sigs)-1].Results()
				assignAll(func(i int) types.Type { return res.At(i).Type() }, res.Len(), n.Results)
			}
		case *ast.SendStmt:
			if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
				r.assign(ch.Elem(), typeOf(n.Value))
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				x, y := typeOf(n.X), typeOf(n.Y)
				r.assign(x, y)
				r.assign(y, x)
				if x != nil {
					r.readAll(x)
				}
			}
		case *ast.IndexExpr:
			if m, ok := typeOf(n.X).Underlying().(*types.Map); ok {
				r.assign(m.Key(), typeOf(n.Index))
			}
		case *ast.CompositeLit:
			t := typeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			switch u := t.Underlying().(type) {
			case *types.Struct:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							r.assign(f.Type(), typeOf(kv.Value))
						}
						continue
					}
					r.readAll(t)
					r.assign(u.Field(i).Type(), typeOf(e))
				}
			case *types.Slice, *types.Array, *types.Map:
				var key, elem types.Type
				switch u := u.(type) {
				case *types.Slice:
					elem = u.Elem()
				case *types.Array:
					elem = u.Elem()
				case *types.Map:
					key, elem = u.Key(), u.Elem()
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key != nil {
							r.assign(key, typeOf(kv.Key))
						}
						e = kv.Value
					}
					r.assign(elem, typeOf(e))
				}
			}
		}
		return true
	})
}
