package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// TestEndToEndDriverImports pins what the end-to-end driver and the trace
// generator may depend on: the public passcloud package, each other, and
// the standard library. Anything under internal/ may be renamed or deleted
// by the refactors this benchmark measures; the driver must survive them.
func TestEndToEndDriverImports(t *testing.T) {
	for dir, allowed := range map[string][]string{
		"e2e":   {"passcloud", "passcloud/benchmark/trace"},
		"trace": nil,
	} {
		for _, f := range parseDir(t, dir) {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && !strings.HasPrefix(path, "passcloud")
				ok := std
				for _, a := range allowed {
					ok = ok || path == a
				}
				if !ok {
					t.Errorf("%s imports %s", dir, path)
				}
			}
		}
	}
}

// TestEndToEndDriverAvoidsDeprecated fails if the end-to-end driver selects
// any name that package passcloud documents as deprecated.
func TestEndToEndDriverAvoidsDeprecated(t *testing.T) {
	deprecated := map[string]bool{}
	for _, f := range parseDir(t, "..") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, para := range strings.Split(fn.Doc.Text(), "\n\n") {
				if strings.HasPrefix(para, "Deprecated:") {
					deprecated[fn.Name.Name] = true
				}
			}
		}
	}
	if !deprecated["OutputsOf"] || !deprecated["AllProvenance"] {
		t.Fatalf("deprecated set %v misses the known deprecated verbs: is the scan still reading package passcloud?", deprecated)
	}
	for _, f := range parseDir(t, "e2e") {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && deprecated[sel.Sel.Name] {
				t.Errorf("e2e selects deprecated %s", sel.Sel.Name)
			}
			return true
		})
	}
}
