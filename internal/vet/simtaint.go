package vet

import (
	"go/ast"
	"strings"
)

// SimTaintAnalyzer guards the boundary between the two time domains. The
// simulated clock is the paper's measurement instrument: every quantitative
// claim is a statement about modelled hardware, so a sim-derived duration
// flowing into a host API (time.Sleep pacing real execution by simulated
// time) or a wall-derived duration flowing into the simulation
// (sim.Clock.Advance charging host jitter to the model) silently corrupts
// both replayability and the numbers.
//
// Two layers of defence:
//
//   - call-site bans: inside internal/ — except internal/sim, which
//     implements the simulated domain — the wall-clock-reading time
//     functions are forbidden outright;
//   - interprocedural flow checks, module-wide including cmd/ and examples/
//     (which may legitimately read the wall clock, e.g. for host profiling,
//     but must still keep the domains apart): the taint core (taint.go)
//     tracks provenance through assignments, arithmetic and function results
//     summarized across packages, and reports any sim→host or wall→sim flow
//     at the sink call.
var SimTaintAnalyzer = &Analyzer{
	Name: "simtaint",
	Doc:  "forbid wall-clock reads in internal/ and any cross-domain flow between sim and host time",
	Run:  runSimTaint,
}

// bannedTimeFuncs are the package time functions that read or wait on the
// host's wall clock. time.Duration and the time constants remain fine — the
// simulation measures itself in time.Duration.
var bannedTimeFuncs = map[string]string{
	"Now":       "read the simulated clock with sim.Clock.Now",
	"Sleep":     "advance the simulated clock with sim.Clock.Advance",
	"After":     "model the delay on the simulated clock",
	"AfterFunc": "model the delay on the simulated clock",
	"Tick":      "model the interval on the simulated clock",
	"NewTimer":  "model the timer on the simulated clock",
	"NewTicker": "model the ticker on the simulated clock",
	"Since":     "use sim.Watch and Stopwatch.Elapsed",
	"Until":     "use sim.Clock arithmetic",
}

// hostWaitFuncs are the time functions whose argument paces real execution —
// the sinks a sim-derived duration must never reach.
var hostWaitFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runSimTaint(pass *Pass) {
	rel := pass.relPath()
	if rel == "internal/sim" {
		return
	}
	if strings.HasPrefix(rel, "internal/") {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if fix, banned := bannedTimeFuncs[obj.Name()]; banned {
					pass.Report(sel.Pos(),
						"time.%s reads the host wall clock; %s", obj.Name(), fix)
				}
				return true
			})
		}
	}
	// Flow checks run everywhere (sim excepted above): even entry points that
	// may read the wall clock must not mix the domains.
	prog := pass.Prog
	if prog == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &taintWalker{prog: prog, info: pass.Info}
			w.check(fd, func(call *ast.CallExpr) {
				checkTaintSink(pass, w, call)
			})
		}
	}
}

// checkTaintSink reports cross-domain flows at one call site.
func checkTaintSink(pass *Pass, w *taintWalker, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return
	}
	argTaint := w.exprTaint(call.Args[0])
	switch {
	case fn.Pkg().Path() == "time" && hostWaitFuncs[fn.Name()]:
		if argTaint&taintSim != 0 {
			pass.Report(call.Pos(),
				"sim-clock-derived duration flows into time.%s; simulated time must never pace host execution (model the wait with sim.Clock.Advance)", fn.Name())
		}
	case isClockAdvance(pass.Module, fn):
		if argTaint&taintWall != 0 {
			pass.Report(call.Pos(),
				"wall-clock-derived duration flows into sim.Clock.Advance; host timing must never be charged to the simulation (derive the amount from modelled quantities)")
		}
	}
}
