package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintedPackages is the repository's doc-comment contract: every exported
// identifier in these packages must carry a doc comment. CI's docs job
// runs the same list via the command; this test makes `go test ./...`
// enforce it too.
var lintedPackages = []string{
	".",
	"internal/core",
	"internal/core/arch",
	"internal/core/shard",
	"internal/prov",
	"internal/cloud",
	"internal/cloud/retry",
	"internal/cloud/billing",
	"internal/workload",
	"internal/cost",
	"internal/replay",
	"internal/analysis",
	"internal/analysis/analysistest",
	"internal/leakcheck",
	"cmd/passvet",
}

// lintedMarkdown are the documents whose relative links must resolve.
var lintedMarkdown = []string{"README.md", "ARCHITECTURE.md"}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestExportedDocComments fails on any exported identifier without a doc
// comment in the linted packages.
func TestExportedDocComments(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range lintedPackages {
		findings, err := lintDir(filepath.Join(root, pkg))
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
}

// TestNoDeprecatedBelowRoot walks every package under internal/, cmd/ and
// examples/ — not just the doc-linted ones — for the deprecated-marker
// rule: a superseded internal function is deleted, never kept beside its
// replacement.
func TestNoDeprecatedBelowRoot(t *testing.T) {
	root := repoRoot(t)
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			findings, err := lintDir(path)
			if err != nil {
				return err
			}
			for _, f := range findings {
				if strings.Contains(f, "marked deprecated") {
					t.Error(f)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMarkdownLinks fails on broken relative links in the core documents.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	for _, file := range lintedMarkdown {
		findings, err := lintMarkdown(filepath.Join(root, file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
}

// TestLintDetectsViolations guards the linter itself: a synthetic file
// with known violations must produce exactly those findings.
func TestLintDetectsViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package x

type Undocumented struct{}

func Exported() {}

// Documented is fine.
func Documented() {}

const MissingDoc = 1

// Grouped doc covers the block.
const (
	A = 1
	B = 2
)

func (u *Undocumented) Method() {}

type hidden struct{}

func (h hidden) Skipped() {}

// Old is kept beside its replacement.
//
// Deprecated: use Documented.
func Old() {}

// old is unexported, and still a finding.
//
// Deprecated: use Documented.
func old() {}

// Mentioning the word Deprecated: mid-line is not the marker.
func Fine() {}
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 6 {
		t.Fatalf("expected 6 findings, got %d: %v", len(findings), findings)
	}
	// The same file as a module's root package may deprecate: it has
	// callers outside the module to wait for.
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if findings, err = lintDir(dir); err != nil || len(findings) != 4 {
		t.Fatalf("root package: expected 4 findings, got %d: %v (err %v)", len(findings), findings, err)
	}

	md := filepath.Join(dir, "doc.md")
	if err := os.WriteFile(md, []byte("see [here](missing.md) and [ok](x.go) and [web](https://example.com)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	links, err := lintMarkdown(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Fatalf("expected 1 broken link, got %v", links)
	}
}
