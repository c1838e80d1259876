package sweep

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// archPackages maps each architecture's store package to its menu.
var archPackages = map[string]string{
	"../s3only":   "s3",
	"../s3sdb":    "s3+sdb",
	"../s3sdbsqs": "s3+sdb+sqs",
}

// sharedLayer is the SimpleDB layer two architectures write through: its
// checks take the caller's prefix ("<prefix>/after-batchput").
const sharedLayer = "../sdbprov"

// parseFuncs parses a package's non-test files into its function bodies
// (methods included).
func parseFuncs(t *testing.T, dir string) []*ast.FuncDecl {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*ast.FuncDecl
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
	}
	return funcs
}

// stringLit returns e's value if it is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// calls visits every call in fd's body as (callee name, arguments).
func calls(fd *ast.FuncDecl, visit func(name string, args []ast.Expr)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			switch fn := c.Fun.(type) {
			case *ast.SelectorExpr:
				visit(fn.Sel.Name, c.Args)
			case *ast.Ident:
				visit(fn.Name, c.Args)
			}
		}
		return true
	})
}

// checkedPoint turns a Check argument into a pattern over point names: a
// literal is itself, fmt.Sprintf("wal/after-record-%d", i) is every index.
// prefixed reports a "<param> + suffix" argument, whose prefix the caller
// supplies.
func checkedPoint(arg ast.Expr) (pattern, suffix string, prefixed bool) {
	switch a := arg.(type) {
	case *ast.BasicLit:
		s, _ := stringLit(a)
		return regexp.QuoteMeta(s), "", false
	case *ast.BinaryExpr:
		if _, ok := a.X.(*ast.Ident); ok && a.Op == token.ADD {
			s, _ := stringLit(a.Y)
			return "", s, true
		}
	case *ast.CallExpr:
		if sel, ok := a.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(a.Args) > 0 {
			s, _ := stringLit(a.Args[0])
			return strings.ReplaceAll(regexp.QuoteMeta(s), "%d", "[0-9]+"), "", false
		}
	}
	return "", "", false
}

// prefixedChecks resolves, for every function name of the shared layer, the
// suffixes of the checks it reaches with its prefix parameter: its own
// "<prefix> + suffix" checks and those of the layer functions it passes the
// prefix on to (a name's methods on several receivers count together).
func prefixedChecks(funcs []*ast.FuncDecl) map[string][]string {
	direct := make(map[string][]string)
	passes := make(map[string][]string)
	for _, fd := range funcs {
		name := fd.Name.Name
		calls(fd, func(callee string, args []ast.Expr) {
			if callee == "Check" && len(args) == 1 {
				if _, suffix, ok := checkedPoint(args[0]); ok {
					direct[name] = append(direct[name], suffix)
				}
				return
			}
			if len(args) > 0 {
				if id, ok := args[len(args)-1].(*ast.Ident); ok && id.Name == "faultPrefix" {
					passes[name] = append(passes[name], callee)
				}
			}
		})
	}
	var reach func(name string, seen map[string]bool) []string
	reach = func(name string, seen map[string]bool) []string {
		if seen[name] {
			return nil
		}
		seen[name] = true
		out := slices.Clone(direct[name])
		for _, callee := range passes[name] {
			out = append(out, reach(callee, seen)...)
		}
		return out
	}
	resolved := make(map[string][]string)
	for _, fd := range funcs {
		name := fd.Name.Name
		if s := reach(name, map[string]bool{}); len(s) > 0 {
			resolved[name] = s
		}
	}
	return resolved
}

// TestMenusCoverEveryCheckedCrashPoint: every crash point an architecture's
// write and commit paths check — its own, and the shared SimpleDB layer's
// under the prefix the architecture passes — is on that architecture's menu,
// so the sweep can arm it; and every menu point is one the code checks.
func TestMenusCoverEveryCheckedCrashPoint(t *testing.T) {
	layer := prefixedChecks(parseFuncs(t, sharedLayer))
	if len(layer) == 0 {
		t.Fatalf("no prefixed crash point found in %s", sharedLayer)
	}
	for dir, arch := range archPackages {
		var checked []string // patterns over point names
		for _, fd := range parseFuncs(t, dir) {
			calls(fd, func(callee string, args []ast.Expr) {
				if callee == "Check" && len(args) == 1 {
					if pattern, _, _ := checkedPoint(args[0]); pattern != "" {
						checked = append(checked, pattern)
					}
					return
				}
				suffixes := layer[callee]
				if len(suffixes) == 0 || len(args) == 0 {
					return
				}
				if prefix, ok := stringLit(args[len(args)-1]); ok {
					for _, s := range suffixes {
						checked = append(checked, regexp.QuoteMeta(prefix+s))
					}
				}
			})
		}
		if len(checked) == 0 {
			t.Errorf("%s: no crash point found in %s", arch, dir)
		}
		menu := menus[arch].crashPoints
		covered := make(map[string]bool)
		for _, pattern := range checked {
			re := regexp.MustCompile("^" + pattern + "$")
			found := false
			for _, point := range menu {
				if re.MatchString(point) {
					found, covered[point] = true, true
				}
			}
			if !found {
				t.Errorf("%s: the code checks crash point %q, which the sweep's menu never arms", arch, pattern)
			}
		}
		for _, point := range menu {
			if !covered[point] {
				t.Errorf("%s: menu point %q is checked nowhere", arch, point)
			}
		}
	}
}
