package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// The standard library is the same whatever module imports it, and
// type-checking it from GOROOT source is most of a load's cost. So every
// Module in the process shares one FileSet and one source importer: a test
// binary that loads many fixture modules checks each standard package once.
// stdMu serializes the importer, which keeps unsynchronized state of its
// own; module packages type-check concurrently around it.
var (
	fset  = token.NewFileSet()
	stdMu sync.Mutex
	std   = importer.ForCompiler(fset, "source", nil)
)

// A Module is a loaded Go module: the unit altovet analyzes. Loading is done
// entirely with the standard library — module-internal imports are resolved
// by walking the module tree, and standard-library imports are type-checked
// from GOROOT source via go/importer's "source" compiler, so no build cache
// or export data is needed.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string

	// mu guards pkgs, loading and the cached program.
	mu      sync.Mutex
	pkgs    map[string]*Package   // memoized by import path
	loading map[string]*loadState // in-flight loads, for concurrent callers

	prog      *Program
	progEpoch int // len(pkgs) the cached program was built against
}

// loadState lets concurrent importers of the same package wait for the one
// goroutine that is loading it.
type loadState struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// A Package is one parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	module *Module
}

// Module returns the module the package was loaded from.
func (p *Package) Module() *Module { return p.module }

// LoadModule finds the module containing dir (walking up to go.mod) and
// prepares it for loading packages.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("vet: no go.mod at or above %s", abs)
		}
		root = parent
	}
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Module{
		Root: root, Path: path,
		pkgs:    map[string]*Package{},
		loading: map[string]*loadState{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("vet: no module declaration in %s", gomod)
}

// Import implements types.Importer over the module: module-internal paths
// load from the module tree; everything else falls through to the source
// importer. This is what lets fixture and production packages alike import
// altoos/internal/... during type checking.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, err := m.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return std.Import(path)
}

// loadImportPath loads the module package with the given import path.
func (m *Module) loadImportPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(path, m.Path)
	rel = strings.TrimPrefix(rel, "/")
	return m.LoadDir(filepath.Join(m.Root, filepath.FromSlash(rel)), path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. The path may be virtual: fixture packages under testdata/ are loaded
// with paths like "altoos/internal/fixture" so that analyzer scope rules see
// them where the fixture pretends to live. Results are memoized per path, and
// concurrent loads of the same path coalesce: the first caller loads, the
// rest wait. Go's import DAG is acyclic, so a loader waiting on one of its
// imports can never be waited on by that import in turn.
func (m *Module) LoadDir(dir, importPath string) (*Package, error) {
	m.mu.Lock()
	if pkg, ok := m.pkgs[importPath]; ok {
		m.mu.Unlock()
		return pkg, nil
	}
	if st, ok := m.loading[importPath]; ok {
		m.mu.Unlock()
		<-st.done
		return st.pkg, st.err
	}
	st := &loadState{done: make(chan struct{})}
	m.loading[importPath] = st
	m.mu.Unlock()

	pkg, err := m.loadDirUncached(dir, importPath)

	m.mu.Lock()
	if err == nil {
		m.pkgs[importPath] = pkg
	}
	delete(m.loading, importPath)
	m.mu.Unlock()
	st.pkg, st.err = pkg, err
	close(st.done)
	return pkg, err
}

// loadDirUncached does the actual parse and type-check for LoadDir.
func (m *Module) loadDirUncached(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", importPath, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		module:     m,
	}, nil
}

// Load resolves the given package patterns. Supported shapes, mirroring the
// go tool closely enough for a repo-local linter:
//
//	./...        every package in the module
//	./dir/...    every package at or under dir
//	./dir, dir   the single package in dir
//
// With no patterns, "./..." is assumed. Directories named "testdata" and
// hidden directories are never walked. The packages type-check on GOMAXPROCS
// workers, shared dependencies coalescing through the in-flight load table;
// the result is in walk order whatever the schedule was.
func (m *Module) Load(patterns ...string) ([]*Package, error) {
	return m.load(runtime.GOMAXPROCS(0), patterns...)
}

// load is Load on a pool of width workers.
func (m *Module) load(width int, patterns ...string) ([]*Package, error) {
	dirs, err := m.patternDirs(patterns)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return nil, err
		}
		paths[i] = m.Path
		if rel != "." {
			paths[i] = m.Path + "/" + filepath.ToSlash(rel)
		}
	}
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	forEach(len(dirs), width, func(i int) {
		pkgs[i], errs[i] = m.LoadDir(dirs[i], paths[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// patternDirs resolves package patterns to a deduplicated directory list.
func (m *Module) patternDirs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ds, err := m.packageDirs(m.Root)
			if err != nil {
				return nil, err
			}
			add(ds...)
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(m.Root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			ds, err := m.packageDirs(base)
			if err != nil {
				return nil, err
			}
			add(ds...)
		default:
			add(filepath.Join(m.Root, filepath.FromSlash(pat)))
		}
	}
	return dirs, nil
}

// packageDirs returns every directory at or under base holding at least one
// non-test Go file.
func (m *Module) packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	uniq := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			uniq = append(uniq, d)
		}
	}
	return uniq, nil
}

// lockedTypes returns the exported-scope named struct types in pkg that
// embed a sync.Mutex or sync.RWMutex field — the "lock-holding types" the
// mutexorder analyzer reasons about. Works on type information alone, so it
// applies equally to the package under analysis and to its imports.
func lockedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isMutexType(st.Field(i).Type()) {
				out = append(out, named)
				break
			}
		}
	}
	return out
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// hasLockedTypes reports whether the package contains any lock-holding type.
func hasLockedTypes(pkg *types.Package) bool { return len(lockedTypes(pkg)) > 0 }
