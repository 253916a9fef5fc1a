// Package fsyncdiscipline enforces the durable-write discipline: in the
// packages that publish artifacts or maintain crash-safe state, a file that
// matters must never be produced by a bare os.Create / os.WriteFile /
// os.Rename. A crash (or a watch-dir rescan) mid-write would then observe a
// torn file. Durable bytes flow through psd/internal/atomicfile (temp file →
// fsync → rename → dir fsync) or through the WAL's segment-rotation path,
// both of which were built and fault-tested for exactly this.
//
// The designated seams themselves — atomicfile, the ingest tier's osFS
// filesystem seam, and the fault-injection shim — are allowlisted; everything
// else in scope must either use them or justify the exception with
// //lint:allow fsyncdiscipline -- <why>.
package fsyncdiscipline

import (
	"go/ast"
	"strings"

	"psd/internal/analysis"
)

// scopePrefixes are package paths (exact or prefix) whose writes are presumed
// durable: the ingest tier, the serving tier, the privacy ledger, the record
// log under the ledger and the publish journal, and every command that
// publishes artifacts (releases, datasets, BENCH reports).
var scopePrefixes = []string{
	"psd/internal/ingest",
	"psd/internal/serve",
	"psd/internal/dp",
	"psd/internal/recordlog",
	"psd/internal/atomicfile",
	"psd/cmd/",
}

// allowFiles maps package path -> file basenames that ARE the durable-write
// seam and so legitimately touch the raw filesystem.
var allowFiles = map[string]map[string]bool{
	"psd/internal/atomicfile":    {"atomicfile.go": true},
	"psd/internal/ingest":        {"fs.go": true},
	"psd/internal/serve/faultfs": {"faultfs.go": true},
}

var bannedOSFuncs = map[string]bool{"Rename": true, "Create": true, "WriteFile": true}

var Analyzer = &analysis.Analyzer{
	Name: "fsyncdiscipline",
	Doc:  "durable artifacts and state must be written via psd/internal/atomicfile or the WAL rotation path, never bare os.Create/os.WriteFile/os.Rename",
	Run:  run,
}

func inScope(pkg string) bool {
	for _, p := range scopePrefixes {
		if pkg == strings.TrimSuffix(p, "/") || strings.HasPrefix(pkg, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.PkgPath) {
		return nil
	}
	allowed := allowFiles[pass.PkgPath]
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if allowed[pass.Filename(f.Pos())] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for fn := range bannedOSFuncs {
				if pass.IsPkgFunc(call, "os", fn) {
					pass.Reportf(call.Pos(), "os.%s in %s bypasses the fsync-before-rename discipline; write durable files through psd/internal/atomicfile (or the WAL rotation seam), or justify with //lint:allow fsyncdiscipline -- <why>", fn, pass.PkgPath)
				}
			}
			return true
		})
	}
	return nil
}
