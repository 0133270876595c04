package vet

import (
	"go/ast"
	"go/types"
	"sort"
)

// A Program is the whole-program view the cross-package analyzers share: every
// package the module has loaded so far, a static call graph over them, an
// interface-to-implementation map (so a call through disk.Device reaches
// Drive's facts), and a fact table summarizing each function's externally
// visible behaviour. Facts are what make one analyzer's conclusion in one
// package ("this function charges simulated time", "this value derives from
// the sim clock") visible to callers in every other package.
//
// The program is rebuilt lazily whenever new packages have been loaded since
// the last build; all loaded packages share one FileSet and one type-checking
// universe, so *types.Func objects are stable keys across packages.
type Program struct {
	module *Module
	// pkgs is every loaded package, sorted by import path for determinism.
	pkgs []*Package
	// decls maps each function object to its declaration and home package.
	decls map[*types.Func]*funcDecl
	// calls is the static call graph: every function or method a declaration
	// calls directly (including calls made inside its function literals — a
	// spawned or stored closure still belongs to its lexical home for
	// may-reach purposes). Callees include interface methods.
	calls map[*types.Func][]*types.Func
	// impls maps a module interface method to the module methods that
	// implement it, so may-reach facts flow through dynamic dispatch.
	impls map[*types.Func][]*types.Func
	// facts holds the per-function summaries; see funcFacts.
	facts map[*types.Func]*funcFacts
}

// funcDecl ties a function object to its syntax and package.
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// funcFacts is the exported summary of one function, computed transitively
// over the call graph (through interface dispatch) to a fixed point.
type funcFacts struct {
	// simWork: the function may charge simulated time (reaches
	// (*sim.Clock).Advance). This is the "does real modelled work" predicate
	// tracecover keys on.
	simWork bool
	// emitPkgs: module packages containing a trace emission site (Recorder
	// Emit/EmitSpan/EmitFlow/EmitSpanFlow/Add/Observe/Begin, Span End) the
	// function may reach. tracecover requires an operation in package P to
	// reach an emission attributed to P, not merely one buried in a lower
	// layer.
	emitPkgs map[string]bool
	// taint summary bits: some result of the function derives from the
	// simulated clock / the host wall clock. Computed by the taint core
	// (taint.go) and consumed at call sites in other packages by simtaint.
	returnsSim  bool
	returnsWall bool
}

// program returns the module's whole-program view, rebuilding it if packages
// were loaded since the last build.
func (m *Module) program() *Program {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prog != nil && m.progEpoch == len(m.pkgs) {
		return m.prog
	}
	prog := &Program{
		module: m,
		decls:  map[*types.Func]*funcDecl{},
		calls:  map[*types.Func][]*types.Func{},
		impls:  map[*types.Func][]*types.Func{},
		facts:  map[*types.Func]*funcFacts{},
	}
	for _, pkg := range m.pkgs {
		prog.pkgs = append(prog.pkgs, pkg)
	}
	sort.Slice(prog.pkgs, func(i, j int) bool {
		return prog.pkgs[i].ImportPath < prog.pkgs[j].ImportPath
	})
	prog.build()
	m.prog = prog
	m.progEpoch = len(m.pkgs)
	return prog
}

// build constructs the call graph, the interface map and the fact table.
func (p *Program) build() {
	for _, pkg := range p.pkgs {
		p.collectDecls(pkg)
	}
	p.collectImpls()
	p.seedFacts()
	p.propagateReach()
	computeTaintSummaries(p)
}

// collectDecls records every function declaration and its direct callees.
func (p *Program) collectDecls(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.decls[obj] = &funcDecl{decl: fd, pkg: pkg}
			var callees []*types.Func
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(pkg.Info, call); fn != nil {
					callees = append(callees, fn)
				}
				return true
			})
			p.calls[obj] = callees
		}
	}
}

// collectImpls links every module interface method to the module methods that
// implement it, so may-reach propagation crosses dynamic dispatch (the facts
// of disk.Drive.Do flow to callers of disk.Device.Do).
func (p *Program) collectImpls() {
	type iface struct {
		t       *types.Interface
		methods []*types.Func
	}
	var ifaces []iface
	var concrete []*types.Named
	for _, pkg := range p.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				fi := iface{t: it}
				for i := 0; i < it.NumMethods(); i++ {
					fi.methods = append(fi.methods, it.Method(i))
				}
				ifaces = append(ifaces, fi)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		for _, fi := range ifaces {
			if !types.Implements(ptr, fi.t) && !types.Implements(named, fi.t) {
				continue
			}
			for _, im := range fi.methods {
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				if impl, ok := obj.(*types.Func); ok {
					p.impls[im] = append(p.impls[im], impl)
				}
			}
		}
	}
}

// factsFor returns (allocating if needed) the fact record for fn.
func (p *Program) factsFor(fn *types.Func) *funcFacts {
	ff := p.facts[fn]
	if ff == nil {
		ff = &funcFacts{}
		p.facts[fn] = ff
	}
	return ff
}

// seedFacts records each function's direct behaviour: trace emissions in its
// own body and direct sim-clock charging.
func (p *Program) seedFacts() {
	for obj, fd := range p.decls {
		ff := p.factsFor(obj)
		homePath := fd.pkg.ImportPath
		for _, callee := range p.calls[obj] {
			switch {
			case isTraceEmission(p.module, callee):
				if ff.emitPkgs == nil {
					ff.emitPkgs = map[string]bool{}
				}
				ff.emitPkgs[homePath] = true
			case isClockAdvance(p.module, callee):
				ff.simWork = true
			}
		}
	}
}

// propagateReach closes the may-reach facts (simWork, emitPkgs) over the
// call graph, expanding interface methods to their module
// implementations, until nothing changes.
func (p *Program) propagateReach() {
	for changed := true; changed; {
		changed = false
		for obj := range p.decls {
			ff := p.factsFor(obj)
			for _, callee := range p.calls[obj] {
				for _, target := range p.resolve(callee) {
					cf := p.facts[target]
					if cf == nil {
						continue
					}
					if cf.simWork && !ff.simWork {
						ff.simWork = true
						changed = true
					}
					for pkg := range cf.emitPkgs {
						if !ff.emitPkgs[pkg] {
							if ff.emitPkgs == nil {
								ff.emitPkgs = map[string]bool{}
							}
							ff.emitPkgs[pkg] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// resolve expands a callee to the functions it may dispatch to: itself if it
// has a body in the program, plus every module implementation if it is an
// interface method.
func (p *Program) resolve(callee *types.Func) []*types.Func {
	if impls, ok := p.impls[callee]; ok {
		out := make([]*types.Func, 0, len(impls)+1)
		if _, has := p.decls[callee]; has {
			out = append(out, callee)
		}
		return append(out, impls...)
	}
	return []*types.Func{callee}
}

// isTraceEmission reports whether fn is a flight-recorder emission method:
// trace.Recorder Emit/EmitSpan/EmitFlow/EmitSpanFlow/Add/Observe/Begin or
// trace.Span End. Add and Observe take interned handles
// (trace.NewCounter, trace.NewHist), so a handle bump is an emission site.
func isTraceEmission(m *Module, fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != m.Path+"/internal/trace" {
		return false
	}
	switch fn.Name() {
	case "Emit", "EmitSpan", "EmitFlow", "EmitSpanFlow", "Add", "Observe", "Begin", "End":
		return true
	}
	return false
}

// isClockAdvance reports whether fn is (*sim.Clock).Advance — the single
// chokepoint through which all simulated time is charged.
func isClockAdvance(m *Module, fn *types.Func) bool {
	return fn.Name() == "Advance" &&
		fn.Pkg() != nil && fn.Pkg().Path() == m.Path+"/internal/sim"
}

// emitsIn reports whether fn may reach a trace emission site located in the
// package with the given import path.
func (p *Program) emitsIn(fn *types.Func, importPath string) bool {
	ff := p.facts[fn]
	return ff != nil && ff.emitPkgs[importPath]
}

// tracedPackages lists the module-relative packages under the tracecover
// observability contract: their exported operations must be visible to the
// flight recorder.
var tracedPackages = map[string]bool{
	"internal/disk":       true,
	"internal/pup":        true,
	"internal/fileserver": true,
	"internal/scavenge":   true,
	"internal/crashpoint": true,
	"internal/scope":      true,
	"internal/cluster":    true,
}
