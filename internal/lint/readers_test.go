package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// readerAllowlist names the exported internal/ functions that no
// program reads but a test does, keyed "pkgpath-suffix.Func". Each value
// names the test that reads it and why the test needs it.
var readerAllowlist = map[string]string{}

// TestEveryExportHasAReader is the reader guard: every exported
// package-level function declared under internal/ must be referenced by
// some non-test file of the module (bench/ included) outside its own
// declaration, or be on readerAllowlist. A function only its own tests
// call is dead weight: delete it with its tests, or allowlist it with
// the test that needs it. Methods are out of scope (a call through an
// interface is not visible as a reference), as are internal/faultinject
// (a test-only seam package) and the lint fixtures under testdata.
func TestEveryExportHasAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repository type-check in -short mode")
	}
	l := getLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	internal := l.module + "/internal/"

	// Every exported package-level function under internal/, with the
	// source span of its declaration.
	type decl struct {
		key      string
		pos, end int
		file     string
	}
	funcs := map[*types.Func]decl{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, internal) ||
			strings.HasPrefix(pkg.Path, internal+"faultinject") ||
			strings.HasPrefix(pkg.Path, internal+"lint/testdata") {
			continue
		}
		key := strings.TrimPrefix(pkg.Path, internal)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				funcs[fn] = decl{
					key:  key + "." + fd.Name.Name,
					pos:  int(fd.Pos()),
					end:  int(fd.End()),
					file: pkg.Fset.Position(fd.Pos()).Filename,
				}
			}
		}
	}

	read := map[*types.Func]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			d, ok := funcs[fn]
			if !ok {
				continue
			}
			if p := int(id.Pos()); p >= d.pos && p < d.end {
				continue // recursion is not a reader
			}
			read[fn] = true
		}
	}

	var unread []string
	seen := map[string]bool{}
	for fn, d := range funcs {
		seen[d.key] = true
		if read[fn] {
			if _, ok := readerAllowlist[d.key]; ok {
				t.Errorf("%s is read by a program; drop it from readerAllowlist", d.key)
			}
			continue
		}
		if _, ok := readerAllowlist[d.key]; !ok {
			unread = append(unread, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("exported function %s has no reader outside its tests: delete it or add it to readerAllowlist with the test that reads it", u)
	}
	for key := range readerAllowlist {
		if !seen[key] {
			t.Errorf("readerAllowlist names %s, which is not declared", key)
		}
	}
}
