package vet

import (
	"go/ast"
	"go/types"
)

// MutexOrderAnalyzer is a deadlock-shape heuristic. The system has a handful
// of lock-holding types — ether.Network and Station, disk.Drive, file.FS,
// the stream devices — and the concurrency discipline that keeps them
// composable is: never call across a package boundary into another
// lock-holding package while holding your own lock. ether.Send is the model
// citizen: it snapshots the recipient list under the network lock, releases
// it, and only then takes each station's lock.
//
// The analyzer walks every function body in source order, tracking a
// conservative "held" set of mutexes (x.mu.Lock() adds, x.mu.Unlock()
// removes, defer x.mu.Unlock() holds to the end of the function). While any
// mutex is held, it flags:
//
//   - method calls whose receiver is a lock-holding named type from a
//     different module package;
//   - method calls on interface types declared in such a package (the
//     disk.Device interface fronts the locked Drive);
//   - calls to exported functions of such a package that take one of its
//     locked or interface types as a parameter (disk.Allocate locks via
//     dev.Do even though Allocate itself is a plain function).
//
// internal/trace is exempt as a leaf: its emit path takes no lock and its
// name registry never calls out while locked, so the global order
// "anything → trace" cannot cycle. The heuristic is linear (it does not
// model branches precisely) and intentionally conservative in what it
// tracks rather than what it flags: a branch that returns while holding
// restores the pre-branch held set for the code after it.
var MutexOrderAnalyzer = &Analyzer{
	Name: "mutexorder",
	Doc:  "flag cross-package calls into lock-holding packages while a mutex is held",
	Run:  runMutexOrder,
}

// leafLockPackages never call out while locked, so holding across a call
// into them cannot participate in a cycle.
var leafLockPackages = map[string]bool{
	"internal/trace": true,
}

func runMutexOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, fn: fd, held: map[string]bool{}}
			w.stmts(fd.Body.List)
		}
	}
}

// lockWalker tracks the held-mutex set through one function body.
type lockWalker struct {
	pass *Pass
	fn   *ast.FuncDecl
	held map[string]bool
}

func (w *lockWalker) holding() bool { return len(w.held) > 0 }

// stmts walks a statement list in source order.
func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e)
		}
		for _, e := range st.Lhs {
			w.expr(e)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() pins the lock for the rest of the function; any
		// other deferred call runs at return, when locks taken here are
		// normally still held, so examine it under the current held set.
		if w.isUnlock(st.Call) {
			return // held until function end: keep the mutex in the set
		}
		w.expr(st.Call)
	case *ast.GoStmt:
		// A new goroutine starts with an empty lock set of its own.
		sub := &lockWalker{pass: w.pass, fn: w.fn, held: map[string]bool{}}
		sub.expr(st.Call)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.expr(st.Cond)
		w.branch(st.Body)
		if st.Else != nil {
			w.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		w.branch(st.Body)
		if st.Post != nil {
			w.stmt(st.Post)
		}
	case *ast.RangeStmt:
		w.expr(st.X)
		w.branch(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Tag != nil {
			w.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(&ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(&ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(&ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.BranchStmt,
		*ast.LabeledStmt, *ast.EmptyStmt:
		// Value-only statements: walk any calls inside.
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				w.call(call)
			}
			return true
		})
	}
}

// branch walks a conditional body: lock-state changes escape it (a branch
// may take or release the lock for the code that follows), but if the
// branch ends by returning, the post-branch held set is restored, since
// that control flow never reaches the code after the branch.
func (w *lockWalker) branch(body *ast.BlockStmt) {
	before := map[string]bool{}
	for k := range w.held {
		before[k] = true
	}
	w.stmts(body.List)
	if endsInReturn(body.List) {
		w.held = before
	}
}

func endsInReturn(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto also leave the straight line
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expr walks an expression, treating immediately-invoked closures as inline
// code and examining every call against the held set.
func (w *lockWalker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Walk the closure body with the current held set only when it
			// is invoked on the spot; a stored closure runs elsewhere.
			return false
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				w.stmts(fl.Body.List)
				return false
			}
			w.call(x)
		}
		return true
	})
}

// call updates the held set for Lock/Unlock and checks everything else.
func (w *lockWalker) call(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		if key, kind := w.mutexOp(sel); key != "" {
			switch kind {
			case "Lock", "RLock":
				w.held[key] = true
			case "Unlock", "RUnlock":
				delete(w.held, key)
			}
			return
		}
	}
	if !w.holding() {
		return
	}
	w.checkForeignCall(call)
}

// isUnlock reports whether call is an Unlock/RUnlock on some mutex.
func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key, kind := w.mutexOp(sel)
	return key != "" && (kind == "Unlock" || kind == "RUnlock")
}

// mutexOp recognizes m.Lock / m.Unlock / m.RLock / m.RUnlock where m is a
// sync.Mutex or sync.RWMutex-typed expression, returning a stable key for
// the mutex (its source text) and the operation name.
func (w *lockWalker) mutexOp(sel *ast.SelectorExpr) (key, kind string) {
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	recv := sel.X
	t := w.pass.TypeOf(recv)
	if t == nil || !isMutexType(t) {
		return "", ""
	}
	return types.ExprString(recv), sel.Sel.Name
}

// checkForeignCall flags a call that enters a different lock-holding module
// package while we hold a mutex.
func (w *lockWalker) checkForeignCall(call *ast.CallExpr) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg()
	if pkg.Path() == w.pass.Path || !w.pass.inModule(pkg.Path()) {
		return
	}
	rel := relOf(w.pass, pkg.Path())
	if leafLockPackages[rel] {
		return
	}
	if !hasLockedTypes(pkg) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			if w.locksItself(named, pkg) {
				w.report(call, fn, pkg)
			}
		}
		return
	}
	// Package-level function: flag when it is handed one of the package's
	// locked or interface types, through which it can reach a lock.
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if named := namedOf(params.At(i).Type()); named != nil &&
			named.Obj().Pkg() == pkg && w.locksItself(named, pkg) {
			w.report(call, fn, pkg)
			return
		}
	}
}

// locksItself reports whether the named type carries a mutex, or is an
// interface declared in a package that has lock-holding implementations.
func (w *lockWalker) locksItself(named *types.Named, pkg *types.Package) bool {
	if _, ok := named.Underlying().(*types.Interface); ok {
		return true
	}
	for _, lt := range lockedTypes(pkg) {
		if lt.Obj() == named.Obj() {
			return true
		}
	}
	return false
}

func (w *lockWalker) report(call *ast.CallExpr, fn *types.Func, pkg *types.Package) {
	name := w.fn.Name.Name
	if w.fn.Recv != nil && len(w.fn.Recv.List) > 0 {
		if named := namedOf(w.pass.TypeOf(w.fn.Recv.List[0].Type)); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	w.pass.Report(call.Pos(),
		"%s calls %s.%s while holding a mutex; release before crossing into a lock-holding package (deadlock-shape, cf. ether.Send)",
		name, pkg.Name(), fn.Name())
}

// relOf is relPath for an arbitrary module package path.
func relOf(pass *Pass, path string) string {
	if path == pass.Module.Path {
		return ""
	}
	return path[len(pass.Module.Path)+1:]
}
