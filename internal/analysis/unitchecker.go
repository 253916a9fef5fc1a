package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// This file implements the tool side of the `go vet -vettool` protocol, the
// same contract golang.org/x/tools/go/analysis/unitchecker speaks:
//
//   - `tool -V=full` prints a version line ending in buildID=<hash of the
//     executable>; cmd/go folds it into its action cache key, so a rebuilt
//     psdlint invalidates cached vet results.
//   - `tool -flags` prints a JSON array describing the tool's flags; cmd/go
//     uses it to validate flags the user passes to `go vet`.
//   - `tool [flags] <dir>/vet.cfg` analyzes one package unit described by the
//     JSON config, writes an (empty — psdlint analyzers are fact-free) facts
//     file to VetxOutput, prints diagnostics to stderr, and exits 2 if any.

// vetConfig mirrors cmd/go/internal/work.vetConfig.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// IsVetInvocation reports whether argv looks like a cmd/go vet-protocol
// invocation rather than a standalone run.
func IsVetInvocation(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

// VetMain services one cmd/go vet-protocol invocation and exits.
func VetMain(progname string, args []string, analyzers []*Analyzer) {
	for _, a := range args {
		switch {
		case a == "-V=full":
			printVersion(progname)
			os.Exit(0)
		case a == "-flags":
			printFlags(analyzers)
			os.Exit(0)
		}
	}
	cfgFile := args[len(args)-1]
	if !strings.HasSuffix(cfgFile, ".cfg") {
		fmt.Fprintf(os.Stderr, "%s: expected vet config file as last argument; invoke via `go vet -vettool=%s` or run standalone with package patterns\n", progname, progname)
		os.Exit(1)
	}
	diags, err := runUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// printVersion emits the `-V=full` line cmd/go parses for its cache key. The
// buildID is a hash of the tool's own executable: analyzer changes rebuild
// the binary and therefore bust go vet's cached results.
func printVersion(progname string) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", progname, id)
}

func printFlags(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{}
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: doc})
	}
	data, _ := json.MarshalIndent(flags, "", "\t")
	os.Stdout.Write(data)
	fmt.Println()
}

// runUnit analyzes the single package unit described by cfgFile.
func runUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	writeVetx := func() error {
		if cfg.VetxOutput == "" {
			return nil
		}
		// psdlint analyzers carry no cross-package facts; the file must
		// still exist for cmd/go to cache the vet action.
		return os.WriteFile(cfg.VetxOutput, []byte("psdlint: no facts\n"), 0o666)
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, writeVetx()
			}
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}

	imp := newExportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	tpkg, info, err := checkFiles(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeVetx()
		}
		return nil, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	var diags []Diagnostic
	if !cfg.VetxOnly {
		diags = RunAnalyzers(&Package{
			PkgPath:   cfg.ImportPath,
			Dir:       cfg.Dir,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		}, analyzers)
	}
	if err := writeVetx(); err != nil {
		return nil, err
	}
	return diags, nil
}
