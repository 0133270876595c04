// Package vet is altovet's analyzer framework: a zero-dependency static
// analysis substrate built directly on the standard library's go/parser,
// go/ast and go/types (deliberately not golang.org/x/tools, so the module's
// go.mod stays dependency-free).
//
// The analyzers enforce invariants the compiler cannot see but the paper's
// reliability story depends on:
//
//   - wordwidth:  machine arithmetic stays within the 16-bit Word, and any
//     narrowing of wider arithmetic is masked or documented;
//   - labelcheck: every disk transfer built outside the disk/scavenge
//     layers checks the page label (§3.3: "a single error cannot cause
//     unbounded damage");
//   - errdiscard: errors from the storage stack are propagated, not
//     silently dropped;
//   - mutexorder: no code calls across package boundaries into other
//     lock-holding types while holding its own lock (a deadlock-shape
//     heuristic);
//   - simtaint:   internal/ never reads or waits on the host wall clock, and
//     simulated and host time never flow into each other;
//   - tracecover: an exported operation of a traced package that charges
//     simulated time reaches a trace emission of its own package.
//
// Replay determinism is left to the run-time gates: TestDeterminism,
// TestGolden and the race detector fail on every map-order, channel-order,
// global-state and goroutine hazard planted in the replay-gated packages
// (the ledger in DESIGN.md §7).
//
// A finding can be suppressed, with a mandatory reason, by an allow comment
// on the flagged line or the line above it:
//
//	//altovet:allow <analyzer> <reason>
//
// Malformed allow comments (unknown analyzer, missing reason) are themselves
// reported, so the escape hatch cannot silently rot.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can jump.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and allow comments.
	Name string
	// Doc is a one-line description of the invariant guarded.
	Doc string
	// Run inspects the package in pass and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path. Fixture packages are loaded under a
	// virtual path so scope rules (internal/ vs cmd/) apply to them too.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Module describes the enclosing module, for path and lockedness queries.
	Module *Module
	// Prog is the whole-program view — call graph, interface map, facts —
	// shared read-only by every pass of a run. Built once per run over all
	// loaded packages.
	Prog *Program

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Analyzers returns the full suite, in reporting order: the per-package
// analyzers, then the two whole-program ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WordWidthAnalyzer,
		LabelCheckAnalyzer,
		ErrDiscardAnalyzer,
		MutexOrderAnalyzer,
		SimTaintAnalyzer,
		TraceCoverAnalyzer,
	}
}

// analyzerNames is the set of valid names for allow-comment validation.
func analyzerNames() map[string]bool {
	m := map[string]bool{}
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Stats summarizes one run for altovet's -stats table: surviving and
// suppressed finding counts per analyzer.
type Stats struct {
	Findings map[string]int // surviving diagnostics, by analyzer
	Allowed  map[string]int // findings suppressed by an allow, by analyzer
}

func newStats() *Stats {
	return &Stats{Findings: map[string]int{}, Allowed: map[string]int{}}
}

func (s *Stats) merge(o *Stats) {
	for k, v := range o.Findings {
		s.Findings[k] += v
	}
	for k, v := range o.Allowed {
		s.Allowed[k] += v
	}
}

// Run applies the given analyzers to pkg, filters findings through the
// package's allow comments, and returns the surviving diagnostics sorted by
// position. Malformed allow comments are appended as findings of the
// pseudo-analyzer "allow".
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAll([]*Package{pkg}, analyzers)
	return diags
}

// RunAll applies the analyzers to every package, sharing one whole-program
// view (built over everything the module has loaded) and fanning the
// per-package passes across GOMAXPROCS workers. The merged output is in
// package order and position-sorted within each package — byte-identical
// whatever the pool's schedule was.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *Stats) {
	return runAll(pkgs, analyzers, runtime.GOMAXPROCS(0))
}

// runAll is RunAll on a pool of width workers.
func runAll(pkgs []*Package, analyzers []*Analyzer, width int) ([]Diagnostic, *Stats) {
	stats := newStats()
	if len(pkgs) == 0 {
		return nil, stats
	}
	prog := pkgs[0].module.program()
	perPkg := make([][]Diagnostic, len(pkgs))
	perStats := make([]*Stats, len(pkgs))
	forEach(len(pkgs), width, func(i int) {
		perPkg[i], perStats[i] = runPackage(pkgs[i], analyzers, prog)
	})
	var out []Diagnostic
	for i := range pkgs {
		out = append(out, perPkg[i]...)
		stats.merge(perStats[i])
	}
	return out, stats
}

// forEach calls f(0) … f(n-1) on up to width goroutines, returning when
// every call has. Callers write call i's result to slot i, so what they
// gather never depends on the schedule.
func forEach(n, width int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// runPackage is one package's full analysis: every analyzer, allow
// filtering, stale-allow detection, position sort.
func runPackage(pkg *Package, analyzers []*Analyzer, prog *Program) ([]Diagnostic, *Stats) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.ImportPath,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   pkg.module,
			Prog:     prog,
			diags:    &diags,
		}
		a.Run(pass)
	}
	stats := newStats()
	allows, bad := collectAllows(pkg)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if allows.allowed(d) {
			stats.Allowed[d.Analyzer]++
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, allows.stale(analyzers)...)
	for _, d := range kept {
		stats.Findings[d.Analyzer]++
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, stats
}

// inModule reports whether path names a package inside the analyzed module.
func (p *Pass) inModule(path string) bool {
	return path == p.Module.Path || strings.HasPrefix(path, p.Module.Path+"/")
}

// relPath returns the package path relative to the module root ("" for the
// root package itself), for scope rules like "anything under internal/".
func (p *Pass) relPath() string { return relOf(p, p.Path) }

// calleeFunc resolves the function or method a call expression invokes,
// returning nil for conversions, calls of function-typed variables, and
// builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// isUint16 reports whether t's underlying type is exactly the 16-bit
// unsigned machine word (disk.Word, mem.Word, VDA, ... are all uint16).
func isUint16(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint16
}

// intWidth returns the bit width of an integer type, with 64 for int/uint/
// uintptr (the conservative assumption on a 64-bit host), and 0 for
// non-integers.
func intWidth(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}
