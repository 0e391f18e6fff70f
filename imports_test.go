package citymesh_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleImports maps each package directory of the module ("internal/sim",
// "cmd/citymesh-sim", ...) to the module packages its non-test files
// import. Nested modules (bench/), hidden directories and testdata are not
// part of the module's build graph and are skipped.
func moduleImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if out[dir] == nil {
			out[dir] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, "citymesh/"); ok {
				out[dir][rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reaches reports whether package from imports to, directly or through
// other module packages.
func reaches(deps map[string]map[string]bool, from, to string) bool {
	seen := map[string]bool{}
	var walk func(p string) bool
	walk = func(p string) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		for dep := range deps[p] {
			if dep == to || walk(dep) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// TestImportDAG pins the layering the packages rely on. The forwarding
// kernel sits below both worlds it serves, the simulator and the live
// agents never depend on each other (which is why the AP set type,
// NodeSet, lives in mesh: both consume it), and the experiment registry is
// a leaf only the command-line tools link.
func TestImportDAG(t *testing.T) {
	deps := moduleImports(t)
	for _, pkg := range []string{"internal/fwd", "internal/sim", "internal/agent", "internal/mesh"} {
		if deps[pkg] == nil {
			t.Fatalf("no sources found for %s: run from the module root", pkg)
		}
	}
	for _, world := range []string{"internal/sim", "internal/agent"} {
		if reaches(deps, "internal/fwd", world) {
			t.Errorf("internal/fwd imports %s", world)
		}
	}
	if reaches(deps, "internal/sim", "internal/agent") {
		t.Error("internal/sim imports internal/agent")
	}
	if reaches(deps, "internal/agent", "internal/sim") {
		t.Error("internal/agent imports internal/sim")
	}
	for dir, imps := range deps {
		if imps["internal/experiments"] && !strings.HasPrefix(dir, "cmd/") {
			t.Errorf("%s imports internal/experiments; only cmd/ may", dir)
		}
	}
}
