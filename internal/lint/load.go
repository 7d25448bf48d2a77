// Package loading without golang.org/x/tools: `go list -e -deps -export
// -json` enumerates the target packages and their full dependency
// closure (in dependency order, with compiled export data for every
// package), module packages are then parsed and type-checked from
// source in that order, and standard-library imports resolve through
// their export data. The result is ONE shared type-checked load — every
// analyzer sees the same types.Package identities, which is what makes
// cross-package fact passing sound.

package lint

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
)

// Package is one type-checked module package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the shared load: all target packages in dependency order,
// one FileSet, one fact store.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
	std    types.ImporterFrom
	facts  *factStore

	// Call-graph memo (callgraph.go): rebuilt when LoadExtra grows the
	// package list, so fixture tests always see a covering graph.
	graphVal  *graph
	graphPkgs int

	// Use-index memo (unusedexport.go), rebuilt on the same rule.
	usesVal  *useIndex
	usesPkgs int
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load runs `go list` in dir over the patterns and type-checks every
// matched module package (dependencies first). Standard-library
// patterns may be included to widen the export-data universe (used by
// fixture tests); they are never linted.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v: %s", err, stderr.String())
	}

	exports := map[string]string{}
	var order []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil && !p.Standard {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		order = append(order, &p)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
		facts:  newFactStore(),
	}
	prog.std = importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}).(types.ImporterFrom)

	// go list -deps emits dependencies before dependents, so a single
	// forward sweep type-checks every module package from source with
	// its module imports already resolved.
	for _, p := range order {
		if p.Standard || p.Module == nil || p.Name == "" {
			continue
		}
		pkg, err := prog.check(p.ImportPath, p.Name, p.Dir, absFiles(p.Dir, p.GoFiles))
		if err != nil {
			return nil, err
		}
		if !p.DepOnly {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	return prog, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// check parses files and type-checks them as package path.
func (prog *Program) check(path, name, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(prog.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", f, err)
		}
		asts = append(asts, af)
	}
	if name == "" && len(asts) > 0 {
		name = asts[0].Name.Name
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*progImporter)(prog)}
	tpkg, err := conf.Check(path, prog.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Name: name, Dir: dir, Files: asts, Types: tpkg, Info: info}
	prog.byPath[path] = pkg
	return pkg, nil
}

// progImporter resolves module imports to the program's source-checked
// packages and everything else through gc export data.
type progImporter Program

func (i *progImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := i.byPath[path]; ok {
		return p.Types, nil
	}
	return i.std.ImportFrom(path, dir, mode)
}
