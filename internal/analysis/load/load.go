// Package load type-checks Go packages for the gdbvet analyzers using
// only the standard library and the go command: `go list -deps -export`
// enumerates the packages and compiles export data for every dependency,
// the target packages are parsed from source, and go/importer's gc
// importer resolves their imports from the export files. This is the same
// shape `go vet` uses, without depending on golang.org/x/tools.
//
// Only a package's GoFiles are parsed, never its _test.go files: the
// invariants govern production code, while tests deliberately provoke the
// conditions the analyzers forbid (fault injection discards failing
// Sync/Append errors on purpose, crash tests corrupt files through the raw
// OS).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"gdbm/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
}

// Packages loads, parses and type-checks every package matching the
// patterns (relative to dir; empty dir means the current directory) and
// returns one analysis target per non-dependency package. The shared
// file set and importer keep types identical across targets.
func Packages(dir string, patterns ...string) ([]*analysis.Target, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exportFile := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			pkg := p
			targets = append(targets, &pkg)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})

	var out2 []*analysis.Target
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue // test-only or empty directory
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo, unsupported", p.ImportPath)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("load: %s: %w", p.ImportPath, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: typecheck %s: %w", p.ImportPath, err)
		}
		out2 = append(out2, &analysis.Target{
			PkgPath: p.ImportPath,
			Fset:    fset,
			Files:   files,
			Pkg:     tpkg,
			Info:    info,
		})
	}
	return out2, nil
}
