// Package determinism enforces the repository's central contract: a released
// decomposition is a pure function of (points, seed, ε-budget). That purity
// is what makes parallel and sequential builds byte-identical per seed, what
// `psdingest verify`'s three-way bit-compare audits, and what the fleet's
// canary bit-compare rollout gate assumes. It holds only if no ambient
// randomness, no wall clock, and no nondeterministic iteration order can
// reach a build or release path.
//
// In the build/release packages (internal/core, dp, tree, grid, ols, median,
// rng) this analyzer forbids:
//
//   - importing math/rand, math/rand/v2 or crypto/rand — all randomness must
//     flow through psd/internal/rng's counter-based per-node streams
//     (rng.At), which are replayable from the seed;
//   - calling time.Now / time.Since / time.Until — wall clock readings make
//     byte-identical rebuilds impossible;
//   - ranging over a map — Go randomizes map iteration order, so any map
//     walk that feeds release output (node ordering, serialized fields,
//     accumulated sums) is a nondeterminism hole. Iterate a sorted key slice
//     instead, or justify the exception with //lint:allow;
//   - outside internal/rng itself, calling rng.New or (*rng.Source).Split —
//     a sequential source makes each draw depend on every draw before it,
//     so the release would hinge on the order work is scheduled in. Every
//     release draw comes from its own stream, rng.At(seed, stream, salt).
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"psd/internal/analysis"
)

// scope is the set of packages whose code can feed release bytes.
var scope = map[string]bool{
	"psd/internal/core":   true,
	"psd/internal/dp":     true,
	"psd/internal/tree":   true,
	"psd/internal/grid":   true,
	"psd/internal/ols":    true,
	"psd/internal/median": true,
	"psd/internal/rng":    true,
}

var bannedImports = map[string]string{
	"math/rand":    "ambient randomness breaks seed-replayable builds; draw from psd/internal/rng streams (rng.At)",
	"math/rand/v2": "ambient randomness breaks seed-replayable builds; draw from psd/internal/rng streams (rng.At)",
	"crypto/rand":  "system entropy can never be replayed from a seed; draw from psd/internal/rng streams (rng.At)",
}

var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

const rngPath = "psd/internal/rng"

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, ambient randomness and map iteration in build/release packages: released bytes must be a pure function of (points, seed, ε)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := bannedImports[path]; banned {
				pass.Reportf(imp.Pos(), "import of %s in build/release package %s: %s", path, pass.PkgPath, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for fn := range bannedTimeFuncs {
					if pass.IsPkgFunc(n, "time", fn) {
						pass.Reportf(n.Pos(), "time.%s in build/release package %s: wall-clock readings make byte-identical rebuilds impossible; timing belongs in the serving/observability layer", fn, pass.PkgPath)
					}
				}
				if pass.PkgPath != rngPath {
					if pass.IsPkgFunc(n, rngPath, "New") {
						pass.Reportf(n.Pos(), "rng.New in build/release package %s: %s", pass.PkgPath, sequentialWhy)
					} else if isSourceSplit(pass, n) {
						pass.Reportf(n.Pos(), "(*rng.Source).Split in build/release package %s: %s", pass.PkgPath, sequentialWhy)
					}
				}
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration in build/release package %s: Go randomizes map order, so anything this loop feeds into release output is nondeterministic; iterate a sorted key slice instead", pass.PkgPath)
				}
			}
			return true
		})
	}
	return nil
}

const sequentialWhy = "a sequential source makes each draw depend on the draws before it; draw from the consumer's own stream, rng.At(seed, stream, salt)"

// isSourceSplit reports whether call is a call of the Split method of
// psd/internal/rng's Source.
func isSourceSplit(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Split" {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != rngPath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil
}
