package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// vetConfig is the part detlint reads of the JSON the go command hands a
// -vettool per compilation unit (the x/tools unitchecker wire format).
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> package path
	PackageFile               map[string]string // package path -> export data
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VetUnit implements one `go vet -vettool` invocation on the unit
// described by the *.cfg file at cfgPath. Diagnostics go to stderr in the
// standard file:line:col format; the exit code is 0 when clean, 2 when
// findings exist (the unitchecker convention the go command understands).
func VetUnit(stderr io.Writer, cfgPath string) (exitCode int, err error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing vet config %s: %v", cfgPath, err)
	}
	// detlint carries no facts between packages, but the go command
	// expects the facts file to exist for caching and downstream units.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}
	// go vet merges a package's _test.go files into its unit (and emits
	// external _test packages as their own units). The determinism
	// contract covers shipped code only, so analyze just the non-test
	// sources. An all-test unit has nothing to analyze.
	shipped := cfg.GoFiles[:0]
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			shipped = append(shipped, f)
		}
	}
	cfg.GoFiles = shipped
	if len(cfg.GoFiles) == 0 {
		return 0, nil
	}
	diags, err := analyzeUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 2, nil
	}
	return 0, nil
}

// analyzeUnit typechecks the unit's sources and runs the analyzers. Every
// import is read from the export data the go command compiled for it
// (cfg.PackageFile), so only the unit itself is checked from source.
func analyzeUnit(cfg *vetConfig) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	exports := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imports := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return exports.Import(path)
	})
	return analyze(fset, imports, cfg.ImportPath, files)
}

// analyze typechecks one package's parsed files, resolving its imports
// through imp, and runs every analyzer over it.
func analyze(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) ([]Diagnostic, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(error) {},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return Run(fset, files, pkg, info, All()), nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
