package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadMissingPackage: a pattern that matches nothing must surface go
// list's error, not produce an empty silently-clean program.
func TestLoadMissingPackage(t *testing.T) {
	_, err := Load("../..", "xvolt/internal/nosuchpkg")
	if err == nil {
		t.Fatal("Load succeeded on a nonexistent package")
	}
	if !strings.Contains(err.Error(), "nosuchpkg") {
		t.Errorf("error does not name the missing package: %v", err)
	}
}

// TestLoadBadDir: go list from a directory that is not a module.
func TestLoadBadDir(t *testing.T) {
	if _, err := Load(t.TempDir(), "./..."); err == nil {
		t.Fatal("Load succeeded outside a module")
	}
}

// TestLoadExtraErrors drives LoadExtra's three failure paths against a
// minimal program (std export data only, no module packages).
func TestLoadExtraErrors(t *testing.T) {
	prog, err := Load("../..", "fmt")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty dir", func(t *testing.T) {
		if _, err := prog.LoadExtra("fixture/empty", t.TempDir()); err == nil {
			t.Fatal("LoadExtra succeeded on a directory with no Go files")
		}
	})

	t.Run("missing dir", func(t *testing.T) {
		if _, err := prog.LoadExtra("fixture/none", filepath.Join("testdata", "no-such-dir")); err == nil {
			t.Fatal("LoadExtra succeeded on a missing directory")
		}
	})

	t.Run("parse error", func(t *testing.T) {
		// Written at test time: an unparseable .go file on disk would
		// fail the repo-wide gofmt gate.
		dir := t.TempDir()
		src := "package brokenparse\n\nfunc oops( {\n"
		if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := prog.LoadExtra("fixture/brokenparse", dir)
		if err == nil {
			t.Fatal("LoadExtra succeeded on an unparseable package")
		}
		if !strings.Contains(err.Error(), "parse") {
			t.Errorf("error does not mention parsing: %v", err)
		}
	})

	t.Run("type error", func(t *testing.T) {
		_, err := prog.LoadExtra("fixture/broken", filepath.Join("testdata", "src", "broken"))
		if err == nil {
			t.Fatal("LoadExtra succeeded on an ill-typed package")
		}
		if !strings.Contains(err.Error(), "typecheck") {
			t.Errorf("error does not mention type checking: %v", err)
		}
	})

	// A failed LoadExtra must not leave a half-registered package behind.
	if len(prog.Packages) != 0 {
		t.Errorf("failed loads joined prog.Packages: %d packages", len(prog.Packages))
	}
}

// LoadExtra parses and type-checks one additional package (e.g. a
// testdata fixture directory) against the program's universe. Unlike
// Load, *_test.go files in the directory are included, so analyzers'
// test-file exemptions can be exercised. The package joins
// prog.Packages so Run sees it.
func (prog *Program) LoadExtra(path, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no go files in %s", dir)
	}
	// Package name comes from the first file's clause during check.
	pkg, err := prog.check(path, "", dir, files)
	if err != nil {
		return nil, err
	}
	prog.Packages = append(prog.Packages, pkg)
	return pkg, nil
}
