package analysis

import (
	"go/ast"
	"go/types"
)

// Simclock reports wall-clock time sources in sim-driven packages.
//
// Every simulated service, store protocol and sweep schedule takes its
// time from sim.Clock, so a run is a pure function of its seed: the
// SWEEP_SEEDS matrix in CI replays locally byte-for-byte, and the
// billing meter's propagation windows are deterministic. One stray
// time.Now or time.Sleep reintroduces the host scheduler into that
// story and seeded replays stop reproducing. No library package is
// exempt; host time is measured by benchmark/, outside this module. A
// call site where wall time is the point (leakcheck polling the real
// scheduler) carries an allow directive saying so.
var Simclock = &Analyzer{
	Name: "simclock",
	Doc:  "forbid time.Now/time.Sleep/timer use in sim-driven packages; all time flows through sim.Clock",
	Run:  runSimclock,
}

// wallClockFuncs are the package time functions that read or wait on
// the host clock. Conversions and arithmetic (time.Duration, t.Add) are
// fine — only origination of wall time is restricted.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

// runSimclock flags wall-clock origination in scope.
func runSimclock(pass *Pass) error {
	if !inLibrary(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			// Methods (time.Time.After, time.Time.Sub, ...) are pure
			// arithmetic on values already obtained; only the package
			// functions originate wall time.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock in a sim-driven package; take time from sim.Clock so seeded runs (SWEEP_SEEDS) stay replayable", fn.Name())
			}
			return true
		})
	}
	return nil
}
