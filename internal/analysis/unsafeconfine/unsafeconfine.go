// Package unsafeconfine confines unsafe memory aliasing to the one audited
// seam. The zero-copy mmap read path reinterprets a page-cache-backed []byte
// as the slab's hot records; the casts that do so live in
// internal/core/unsafeslice.go (with the mmap syscall shims beside it) and
// were audited together: alignment checked at open, lifetimes tied to the
// mapping, no write path. Any new import of unsafe — or any
// reflect.SliceHeader/StringHeader aliasing, which is the same trick with
// fewer guardrails — outside that seam is an error everywhere in the module,
// tests included: an unaudited alias can corrupt served answers silently.
//
// Assembly is the same kind of escape from the type system, so it gets the
// same treatment: a body-less func declaration (a function implemented in
// a .s file) is an error outside its own audited seam, the checksum
// kernel's declaration file internal/checksum/crc64_amd64.go.
package unsafeconfine

import (
	"go/ast"
	"strconv"

	"psd/internal/analysis"
)

// seam is the audited set: package path -> file basenames allowed to import
// unsafe.
var seam = map[string]map[string]bool{
	"psd/internal/core": {
		"unsafeslice.go": true,
		"mmap_unix.go":   true,
		"mmap_other.go":  true,
	},
}

// asmSeam is the audited set: package path -> file basenames allowed to
// declare assembly-implemented (body-less) functions.
var asmSeam = map[string]map[string]bool{
	"psd/internal/checksum": {
		"crc64_amd64.go": true,
	},
}

var Analyzer = &analysis.Analyzer{
	Name: "unsafeconfine",
	Doc:  "unsafe and SliceHeader-style aliasing are confined to internal/core's audited mmap seam (unsafeslice.go), and assembly-implemented functions to internal/checksum's kernel declarations (crc64_amd64.go); new uses elsewhere are errors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	allowed := seam[pass.PkgPath]
	asmAllowed := asmSeam[pass.PkgPath]
	for _, f := range pass.Files {
		inSeam := allowed[pass.Filename(f.Pos())]
		if !asmAllowed[pass.Filename(f.Pos())] {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil {
					pass.Reportf(fd.Pos(), "func %s has no body: assembly outside the audited seam (psd/internal/checksum/crc64_amd64.go) escapes the type system and the race detector — extend the seam deliberately or write it in Go", fd.Name.Name)
				}
			}
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "unsafe" {
				continue
			}
			if inSeam {
				continue
			}
			pass.Reportf(imp.Pos(), "import of unsafe outside the audited mmap seam (psd/internal/core/unsafeslice.go); unaudited aliasing can silently corrupt served answers — extend the seam deliberately or find a safe formulation")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "SliceHeader" && sel.Sel.Name != "StringHeader" {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pass.ImportedPkg(id) != "reflect" {
				return true
			}
			pass.Reportf(sel.Pos(), "reflect.%s is unsafe aliasing without the audit trail; the only sanctioned reinterpretation lives in psd/internal/core/unsafeslice.go", sel.Sel.Name)
			return true
		})
	}
	return nil
}
