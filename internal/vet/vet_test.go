package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeFixture materializes a one-file package in a temp dir.
func writeFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestModuleDiscovery(t *testing.T) {
	mod := loadTestModule(t)
	if mod.Path != "altoos" {
		t.Errorf("module path = %q, want altoos", mod.Path)
	}
	if _, err := os.Stat(filepath.Join(mod.Root, "go.mod")); err != nil {
		t.Errorf("module root %q has no go.mod: %v", mod.Root, err)
	}
}

func TestLoadPatterns(t *testing.T) {
	mod := loadTestModule(t)
	pkgs, err := mod.Load("internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "altoos/internal/sim" {
		t.Fatalf("Load(internal/sim) = %v", pkgs)
	}
	under, err := mod.Load("internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(under) < 15 {
		t.Errorf("Load(internal/...) found only %d packages", len(under))
	}
	for _, p := range under {
		if !strings.HasPrefix(p.ImportPath, "altoos/internal/") {
			t.Errorf("pattern internal/... loaded %s", p.ImportPath)
		}
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("module walk descended into testdata: %s", p.Dir)
		}
	}
}

// TestParallelRunDeterministic: the tree loaded and analyzed on one worker
// and on eight must give byte-identical output — the package order, every
// finding and the allow counts. The pool may not leak its schedule.
func TestParallelRunDeterministic(t *testing.T) {
	render := func(width int) string {
		mod := loadTestModule(t)
		pkgs, err := mod.load(width, "./...")
		if err != nil {
			t.Fatal(err)
		}
		diags, stats := runAll(pkgs, Analyzers(), width)
		var b strings.Builder
		for _, p := range pkgs {
			fmt.Fprintln(&b, p.ImportPath)
		}
		for _, d := range mod.JSONDiagnostics(diags) {
			fmt.Fprintf(&b, "%s:%d: %s: %s\n", d.File, d.Line, d.Analyzer, d.Message)
		}
		names := make([]string, 0, len(stats.Allowed))
		for name := range stats.Allowed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "allowed %s %d\n", name, stats.Allowed[name])
		}
		return b.String()
	}
	if one, eight := render(1), render(8); one != eight {
		t.Errorf("worker count changed the output:\n-- 1 worker --\n%s\n-- 8 workers --\n%s", one, eight)
	}
}

// TestAllowValidation: a typo in an allow directive must itself be a
// finding, never a silent no-op.
func TestAllowValidation(t *testing.T) {
	dir := writeFixture(t, `package fix

//altovet:allow nosuchanalyzer because reasons
var A = 1

//altovet:allow errdiscard
var B = 2

//altovet:allow errdiscard a real reason
var C = 3
`)
	mod := loadTestModule(t)
	pkg, err := mod.LoadDir(dir, "altoos/internal/allowfix")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, Analyzers())
	var msgs []string
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Errorf("unexpected non-allow diagnostic: %s", d)
			continue
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d allow findings (%v), want 3", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "unknown analyzer nosuchanalyzer") {
		t.Errorf("first finding = %q", msgs[0])
	}
	if !strings.Contains(msgs[1], "no reason") {
		t.Errorf("second finding = %q", msgs[1])
	}
	// The well-formed directive suppresses nothing, so it is stale.
	if !strings.Contains(msgs[2], "suppresses nothing") {
		t.Errorf("third finding = %q", msgs[2])
	}
}

// TestAllowSuppression: an allow on the line above suppresses exactly that
// analyzer on exactly that line. (The wall-clock call-site ban lives in
// simtaint now.)
func TestAllowSuppression(t *testing.T) {
	dir := writeFixture(t, `package fix

import "time"

// suppressed finding:
//altovet:allow simtaint fixture needs one justified wall-clock read
var T = time.Now()

// unsuppressed finding:
var U = time.Now()
`)
	mod := loadTestModule(t)
	pkg, err := mod.LoadDir(dir, "altoos/internal/allowfix2")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, []*Analyzer{SimTaintAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly the unsuppressed one: %v", len(diags), diags)
	}
	if diags[0].Pos.Line != 10 {
		t.Errorf("surviving finding on line %d, want 10", diags[0].Pos.Line)
	}
}

// TestMultiAnalyzerAllow: one directive may scope a single reason to several
// analyzers; it is live as long as any of them uses it.
func TestMultiAnalyzerAllow(t *testing.T) {
	dir := writeFixture(t, `package fix

import "time"

//altovet:allow simtaint,errdiscard one reason shared by two analyzers
var T = time.Now()
`)
	mod := loadTestModule(t)
	pkg, err := mod.LoadDir(dir, "altoos/internal/allowfix3")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, Analyzers())
	if len(diags) != 0 {
		t.Errorf("multi-analyzer allow leaked findings: %v", diags)
	}
}
