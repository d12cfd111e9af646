// Package determinism forbids wall-clock, host-clock-wait,
// unseeded-randomness and map-iteration nondeterminism inside the
// virtual-time packages.
//
// The clone pipeline's figures (DESIGN.md §7, §9) are pinned by
// golden-series tests: virtual time must be a deterministic function of
// the operation sequence, never of wall-clock, scheduling or map layout.
// Inside the metered packages (internal/hv, internal/mem, internal/vclock,
// internal/cloned, internal/obs, internal/netsim, whose Link.Plan prices
// every cross-host transfer, internal/fnv1a, and the layers that drive
// them: internal/guest, internal/core, internal/cluster,
// internal/xenstore, internal/faas and internal/gnttab) this analyzer
// reports:
//
//   - time.Now / time.Since / time.Until — wall clock in a metered path;
//   - time.After / Sleep / NewTimer / NewTicker / Tick / AfterFunc — a
//     wait on the host clock: a Platform is driven by one goroutine, so
//     such a wait can only stall it, and a timeout makes the outcome
//     depend on host speed;
//   - math/rand package-level functions (rand.Int, rand.Intn, rand.Seed,
//     ...) — unseeded process-global randomness; methods on an explicitly
//     seeded *rand.Rand are allowed;
//   - range over a map — iteration order is randomized per run; iterate a
//     sorted key slice (or a side slice that records insertion order)
//     instead;
//   - runtime.NumGoroutine / runtime.Stack — goroutine-identity-dependent
//     logic.
//
// A finding that is genuinely order-insensitive (e.g. a commutative sum
// over map values) can be waived with //nephele:nondeterministic-ok and a
// justification on the same line.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"nephele/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "forbids time.Now, host-clock waits, unseeded math/rand, map iteration and goroutine-ID logic in virtual-time packages",
	Suppress: "nephele:nondeterministic-ok",
	Run:      run,
}

// Targets are the import-path prefixes the analyzer is active in. Tests
// override this to point at fixture trees.
var Targets = []string{
	"nephele/internal/hv",
	"nephele/internal/mem",
	"nephele/internal/vclock",
	"nephele/internal/cloned",
	"nephele/internal/obs",
	"nephele/internal/netsim",
	"nephele/internal/fnv1a",
	"nephele/internal/guest",
	"nephele/internal/core",
	"nephele/internal/cluster",
	"nephele/internal/xenstore",
	"nephele/internal/faas",
	"nephele/internal/gnttab",
}

// bannedFuncs maps package path -> function name -> short reason.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock time",
		"Since":     "wall-clock time",
		"Until":     "wall-clock time",
		"After":     "a host-clock wait",
		"Sleep":     "a host-clock wait",
		"NewTimer":  "a host-clock wait",
		"NewTicker": "a host-clock wait",
		"Tick":      "a host-clock wait",
		"AfterFunc": "a host-clock wait",
	},
	"runtime": {
		"NumGoroutine": "goroutine-count-dependent logic",
		"Stack":        "goroutine-identity-dependent logic",
	},
}

func run(pass *analysis.Pass) error {
	targeted := false
	for _, t := range Targets {
		if pass.Pkg.Path() == t || strings.HasPrefix(pass.Pkg.Path(), t+"/") {
			targeted = true
			break
		}
	}
	if !targeted {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pkgName.Imported().Path()
	if reasons, ok := bannedFuncs[path]; ok {
		if why, ok := reasons[sel.Sel.Name]; ok {
			pass.Reportf(call.Pos(), "call to %s.%s in a virtual-time package: %s is nondeterministic across runs", path, sel.Sel.Name, why)
		}
	}
	if path == "math/rand" || path == "math/rand/v2" {
		switch sel.Sel.Name {
		case "New", "NewSource", "NewPCG", "NewChaCha8":
			// Constructing an explicitly seeded source is the approved
			// pattern; nondeterminism would need a nondeterministic seed,
			// which the other checks catch.
		default:
			pass.Reportf(call.Pos(), "call to %s.%s in a virtual-time package: package-level math/rand state is not seeded from the operation sequence; use a rand.New(rand.NewSource(seed)) local to the caller", path, sel.Sel.Name)
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration in a virtual-time package: order is randomized per run; iterate a sorted key slice or an insertion-order slice instead")
}
