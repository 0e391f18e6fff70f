package citymesh_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseModule parses every non-test Go file of the module into fset and
// hands each to visit with its slash-separated path
// ("internal/sim/engine.go", ...). Nested modules (bench/), hidden
// directories and testdata are not part of the module's build graph and
// are skipped. With all set, test files and nested modules are parsed too:
// every Go file of the repository.
func parseModule(t *testing.T, fset *token.FileSet, all bool, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); (err == nil && !all) ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (strings.HasSuffix(path, "_test.go") && !all) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fileImports maps each import of f, by the name the file uses for it, to
// its path.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = p
	}
	return out
}

// moduleImports maps each package directory of the module ("internal/sim",
// "cmd/citymesh-sim", ...) to the module packages its non-test files
// import.
func moduleImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	parseModule(t, token.NewFileSet(), false, func(path string, f *ast.File) {
		dir := filepath.Dir(path)
		if out[dir] == nil {
			out[dir] = map[string]bool{}
		}
		for _, p := range fileImports(f) {
			if rel, ok := strings.CutPrefix(p, "citymesh/"); ok {
				out[dir][rel] = true
			}
		}
	})
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
// a leaf only the command-line tools link. The scratch free list, the token
// bucket and the SplitMix64 mixer are leaves below everything that reuses
// them, and the bounded FIFO map sits on the mixer alone. The building
// graph is the sender's map-only planner: it knows nothing of the AP mesh
// or the simulator.
func TestImportDAG(t *testing.T) {
	deps := moduleImports(t)
	leaves := map[string][]string{
		"internal/freelist":    nil,
		"internal/tokenbucket": nil,
		"internal/splitmix":    nil,
		"internal/fifo":        {"internal/splitmix"},
	}
	for _, pkg := range []string{"internal/fwd", "internal/sim", "internal/agent", "internal/mesh", "internal/freelist", "internal/fifo", "internal/tokenbucket", "internal/splitmix", "internal/buildinggraph"} {
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
	for _, below := range []string{"internal/mesh", "internal/sim"} {
		if reaches(deps, "internal/buildinggraph", below) {
			t.Errorf("internal/buildinggraph imports %s", below)
		}
	}
	for leaf, allowed := range leaves {
		for imp := range deps[leaf] {
			if !slices.Contains(allowed, imp) {
				t.Errorf("%s imports citymesh/%s; of the module it may import only %v", leaf, imp, allowed)
			}
		}
	}
	for dir, imps := range deps {
		if imps["internal/experiments"] && !strings.HasPrefix(dir, "cmd/") {
			t.Errorf("%s imports internal/experiments; only cmd/ may", dir)
		}
	}
}

// TestDeterministicPackages keeps wall-clock time and the shared global
// random source out of the packages whose output the goldens pin: a run
// there must depend only on its seed. math/rand is allowed through a
// seeded rand.New(rand.NewSource(...)) only.
func TestDeterministicPackages(t *testing.T) {
	pinned := map[string]bool{
		"internal/experiments": true, "internal/runner": true, "internal/sim": true,
		"internal/buildinggraph": true, "internal/stats": true,
	}
	banned := func(path, fn string) bool {
		switch path {
		case "time":
			return fn == "Now" || fn == "Since"
		case "math/rand":
			return fn != "New" && fn != "NewSource"
		}
		return false
	}
	seen := map[string]bool{}
	parseModule(t, token.NewFileSet(), false, func(path string, f *ast.File) {
		dir := filepath.Dir(path)
		if !pinned[dir] {
			return
		}
		seen[dir] = true
		imports := fileImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil && banned(imports[pkg.Name], sel.Sel.Name) {
				t.Errorf("%s calls %s.%s", path, imports[pkg.Name], sel.Sel.Name)
			}
			return true
		})
	})
	for dir := range pinned {
		if !seen[dir] {
			t.Errorf("no sources found for %s: run from the module root", dir)
		}
	}
}
