// Command doclint is the repository's documentation gate, run by the CI
// docs job (and by its own test, so `go test ./...` enforces it too). It
// checks three things:
//
//   - every exported identifier (types, functions, methods, package-level
//     consts and vars) in the given package directories carries a doc
//     comment — the `revive` exported rule, self-contained so the gate
//     needs nothing the toolchain does not already ship;
//   - no declaration outside the module's root package is documented as
//     deprecated: below the public API a superseded function has no
//     outside callers to wait for, so it is deleted and its callers moved,
//     never kept beside its replacement;
//   - every relative link in the given markdown files resolves to a file
//     or directory in the repository (-md), so README/ARCHITECTURE cannot
//     silently rot.
//
// Usage:
//
//	doclint ./ ./internal/core ./internal/prov
//	doclint -md README.md -md ARCHITECTURE.md ./...
//
// Exit status 1 when any finding is reported. doclint checks that the
// code is explained; its companion gate, cmd/passvet, checks that the
// code obeys the store's concurrency, determinism, and metering
// invariants.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdFlags collects repeated -md flags.
type mdFlags []string

// String implements flag.Value.
func (m *mdFlags) String() string { return strings.Join(*m, ",") }

// Set implements flag.Value.
func (m *mdFlags) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var md mdFlags
	flag.Var(&md, "md", "markdown file whose relative links must resolve (repeatable)")
	flag.Parse()

	var findings []string
	for _, dir := range flag.Args() {
		fs, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, file := range md {
		fs, err := lintMarkdown(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintDir reports every exported identifier in dir (non-test files) that
// lacks a doc comment, as "file:line: name" strings, plus — unless dir is
// the module's root package — every declaration marked deprecated.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	// Only the root package has callers outside the module to deprecate for.
	_, err = os.Stat(filepath.Join(dir, "go.mod"))
	internal := err != nil
	deprecated := func(doc *ast.CommentGroup, name string) {
		if !internal || doc == nil {
			return
		}
		for _, line := range strings.Split(doc.Text(), "\n") {
			if strings.HasPrefix(line, deprecatedMarker) {
				p := fset.Position(doc.Pos())
				findings = append(findings, fmt.Sprintf("%s:%d: %s is marked deprecated outside the root package: delete it and move its callers", p.Filename, p.Line, name))
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					deprecated(d.Doc, d.Name.Name)
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report, deprecated)
				}
			}
		}
	}
	return findings, nil
}

// deprecatedMarker opens the godoc paragraph that marks a declaration as
// superseded.
const deprecatedMarker = "Deprecated:"

// exportedReceiver reports whether a method's receiver type is exported
// (functions have no receiver and pass). Methods on unexported types are
// not part of the package API.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// lintGenDecl checks type/const/var declarations. A doc comment on the
// grouped declaration covers every spec inside it (the const-block idiom);
// otherwise each exported spec needs its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string), deprecated func(*ast.CommentGroup, string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	deprecated(d.Doc, d.Tok.String()+" declaration")
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			deprecated(s.Doc, s.Name.Name)
			if s.Name.IsExported() && s.Doc == nil && !groupDoc {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			deprecated(s.Doc, s.Names[0].Name)
			if s.Doc != nil || s.Comment != nil || groupDoc {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}

// mdLink matches inline markdown links, image links included (their
// `[alt](target)` tail matches); autolinks (<http://...>) do not match.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// lintMarkdown reports relative links in file that do not resolve to an
// existing file or directory (anchors are stripped; absolute URLs skip).
func lintMarkdown(file string) ([]string, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var findings []string
	base := filepath.Dir(file)
	for i, line := range strings.Split(string(raw), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(base, target)); err != nil {
				findings = append(findings, fmt.Sprintf("%s:%d: broken relative link %q", file, i+1, m[1]))
			}
		}
	}
	return findings, nil
}
