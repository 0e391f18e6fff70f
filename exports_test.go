package citymesh_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the identifiers under internal/ that have no use
// outside tests and bench/ but stay, each with its reason. The list can
// only shrink: TestEveryExportedIdentifierIsUsed fails on an entry that has
// gained a use or no longer exists.
var unusedAllowed = map[string]string{
	// Test oracles.
	"internal/conduit.Contains":                "the per-call containment the cached Region is checked against",
	"internal/geo.HaversineMeters":             "the great-circle distance the planar projection is checked against",
	"internal/citygen.Plan.City":               "the plan through the OSM writer and parser, for the round-trip test",
	"internal/sim.InvariantChecker.Violations": "names the kernel invariants a stress or fuzz run broke",
	// Section 3 protocols that only tests run: they need a decision, not a
	// deletion.
	"internal/apps.Retrieve":          "the section 3 step 4 retrieval round trip; no program retrieves yet",
	"internal/apps.DecodePoll":        "parses a retrieval poll; no program receives one yet",
	"internal/apps.DecodeReply":       "parses a retrieval reply; no program receives one yet",
	"internal/postbox.WithPush":       "the urgent-message push hook; no program registers one yet",
	"internal/postbox.Store.LastSeen": "the recipient location push delivery reads",
	// Pending the ROADMAP decision: wire the prefix into federation's leg
	// frames, or delete it.
	"internal/packet.AppendRegionPrefix": "the region prefix no send path encodes yet",
	"internal/packet.DecodeRegionPrefix": "the region prefix no send path decodes yet",
	// Test seams and assertion accessors.
	"internal/postbox.WithClock":                "injects the clock the retention tests move",
	"internal/health.Map.Now":                   "the map's sim time, asserted by the health tests",
	"internal/health.Map.Partitioned":           "the partition verdict the health tests assert",
	"internal/health.Map.Penalty":               "one building's planner cost multiplier, asserted by the health tests",
	"internal/health.Map.Reset":                 "clears suspicion between health test phases",
	"internal/health.Map.Suspects":              "the suspect list the health tests assert",
	"internal/internetwork.Internetwork.Region": "looks a region up by ID in the federation tests",
	"internal/mesh.DefaultConfig":               "the mesh defaults the mesh and root tests build from",
	"internal/conduit.Route.Src":                "a route's source building, asserted by tests",
	"internal/conduit.Route.Dst":                "a route's destination building, asserted by tests",
	"internal/fifo.Map.Len":                     "the key count the fifo fuzz oracle and the agent dedup tests assert",
}

// useLint holds TestEveryExportedIdentifierIsUsed: the non-test files of
// the module and of bench/, type-checked together, and which objects they
// use outside the objects' own declarations.
type useLint struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File    // by package directory
	pkgs  map[string]*types.Package // by import path, once checked
	info  *types.Info
}

// newUseLint returns a lint over files parsed into fset; std imports the
// standard library.
func newUseLint(fset *token.FileSet, std types.Importer) *useLint {
	return &useLint{
		fset:  fset,
		std:   std,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
}

// add takes one parsed file. A test file is not a use, so it is dropped.
func (l *useLint) add(p string, f *ast.File) {
	if !strings.HasSuffix(p, "_test.go") {
		dir := path.Dir(p)
		l.files[dir] = append(l.files[dir], f)
	}
}

// moduleDir maps an import path to its directory under the repository
// root: "citymesh" is ".", and bench/'s module path is citymesh/bench.
func moduleDir(importPath string) (string, bool) {
	if importPath == "citymesh" {
		return ".", true
	}
	return strings.CutPrefix(importPath, "citymesh/")
}

// Import type-checks a module package from its non-test files the first
// time it is asked for, and hands anything else to the standard library's
// importer.
func (l *useLint) Import(importPath string) (*types.Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, ok := moduleDir(importPath)
	if !ok {
		return l.std.Import(importPath)
	}
	files := l.files[dir]
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// interfaces returns every interface a method may be satisfying: the named
// interfaces and interface literals of the checked files, and error,
// fmt.Stringer, sort.Interface, heap.Interface and io's interfaces.
func (l *useLint) interfaces() ([]*types.Interface, error) {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					out = append(out, l.info.Types[it].Type.Underlying().(*types.Interface))
				}
				return true
			})
		}
	}
	std := map[string][]string{"fmt": {"Stringer"}, "sort": {"Interface"}, "container/heap": {"Interface"}, "io": nil}
	for p, names := range std {
		pkg, err := l.std.Import(p)
		if err != nil {
			return nil, err
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, name := range names {
			if obj := pkg.Scope().Lookup(name); obj.Exported() && types.IsInterface(obj.Type()) {
				out = append(out, obj.Type().Underlying().(*types.Interface))
			}
		}
	}
	return out, nil
}

// satisfies reports whether method m is there to satisfy an interface that
// declares it: its receiver's type, or a pointer to it, implements one.
func satisfies(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			declares = declares || it.Method(i).Name() == m.Name()
		}
		if declares && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// origin is the declared object behind a use: the generic function or
// method an instance was made from.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// used returns every object some checked file uses outside the object's
// own declaration. A method's receiver naming its type is not a use of the
// type.
func (l *useLint) used() map[types.Object]bool {
	out := map[types.Object]bool{}
	visit := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.info.Uses[id]; obj != nil && !self[origin(obj)] {
					out[origin(obj)] = true
				}
			}
			return true
		})
	}
	for _, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					self := map[types.Object]bool{l.info.Defs[d.Name]: true}
					visit(d.Type, self)
					if d.Body != nil {
						visit(d.Body, self)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						self := map[types.Object]bool{}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							self[l.info.Defs[s.Name]] = true
						case *ast.ValueSpec:
							for _, name := range s.Names {
								self[l.info.Defs[name]] = true
							}
						}
						visit(spec, self)
					}
				}
			}
		}
	}
	return out
}

// run type-checks every package and returns the package-level identifiers
// and methods under internal/, exported or not, that nothing uses, as
// "dir.Name" or "dir.Type.Method" in sorted order, and how many such
// identifiers there are. A method that satisfies an interface counts but is
// never unused.
func (l *useLint) run() (unused []string, declared int, err error) {
	dirs := make([]string, 0, len(l.files))
	for dir := range l.files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		importPath := "citymesh"
		if dir != "." {
			importPath += "/" + dir
		}
		if _, err := l.Import(importPath); err != nil {
			return nil, 0, err
		}
	}
	ifaces, err := l.interfaces()
	if err != nil {
		return nil, 0, err
	}
	uses := l.used()
	check := func(name string, obj types.Object, exempt bool) {
		declared++
		if !exempt && !uses[obj] {
			unused = append(unused, name)
		}
	}
	for _, pkg := range l.pkgs {
		dir, _ := moduleDir(pkg.Path())
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(dir+"."+name, obj, false)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				check(dir+"."+name+"."+m.Name(), m, satisfies(m, ifaces))
			}
		}
	}
	sort.Strings(unused)
	return unused, declared, nil
}

// allowlistDrift compares the unused identifiers with an allowlist: those
// it does not list, and the entries that are no longer unused, because the
// name gained a use or is gone.
func allowlistDrift(unused []string, allow map[string]string) (unlisted, stale []string) {
	for _, name := range unused {
		if _, ok := allow[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if !slices.Contains(unused, name) {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// TestEveryExportedIdentifierIsUsed fails on a package-level name or a
// method under internal/, exported or not, that no non-test Go file of the
// module or of bench/ uses, unless unusedAllowed lists it. (The name
// predates the unexported half; CI selects the test by it.) The root package's
// aliases count as uses; bench/ is frozen, so what it calls stays. A
// method's receiver naming its own type, and a declaration referring to
// itself, are not uses. A method is exempt when its type implements an
// interface that declares it (see interfaces). Files are type-checked
// with go/types, so a method call on any expression resolves.
func TestEveryExportedIdentifierIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	l := newUseLint(fset, importer.ForCompiler(fset, "source", nil))
	parseModule(t, fset, true, l.add)
	unused, declared, err := l.run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d package-level identifiers and methods under internal/, %d without a use outside tests", declared, len(unused))
	unlisted, stale := allowlistDrift(unused, unusedAllowed)
	for _, name := range unlisted {
		t.Errorf("%s has no use outside tests and bench/: delete it, or list it in unusedAllowed with the reason", name)
	}
	for _, name := range stale {
		t.Errorf("%s is in unusedAllowed but is used or gone: take it off the list", name)
	}
}

// TestExportedUseRule runs the lint over small sources: what counts as a
// use, for exported and unexported names alike, which methods an interface
// exempts, and that a stale allowlist entry fails.
func TestExportedUseRule(t *testing.T) {
	const twoFuncs = `package a

func F() {}

func G() {}
`
	const callG = `package main

import "citymesh/internal/a"

func main() { a.G() }
`
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	for _, tc := range []struct {
		name            string
		files           map[string]string
		allow           map[string]string
		unlisted, stale []string
	}{
		{"a use in a test file does not count", map[string]string{
			"internal/a/a.go": twoFuncs,
			"internal/a/a_test.go": `package a

func use() { F() }
`,
			"cmd/m/main.go": callG,
		}, nil, []string{"internal/a.F"}, nil},
		{"a receiver or a recursive call does not count", map[string]string{
			"internal/a/a.go": `package a

type T struct{}

func (t *T) Walk() { t.Walk() }

func Fact(n int) int {
	if n == 0 {
		return 1
	}
	return n * Fact(n-1)
}
`}, nil, []string{"internal/a.Fact", "internal/a.T", "internal/a.T.Walk"}, nil},
		{"a facade alias and a bench call count", map[string]string{
			"internal/a/a.go": `package a

type T struct{}

func F() {}

func G() {}
`,
			"citymesh.go": `package citymesh

import "citymesh/internal/a"

type T = a.T
`,
			"bench/main.go": `package main

import "citymesh/internal/a"

func main() { a.F() }
`,
		}, nil, []string{"internal/a.G"}, nil},
		{"a method an interface declares is exempt", map[string]string{
			"internal/a/a.go": `package a

type Shape interface{ Area() float64 }

type Sq struct{ s float64 }

func (q Sq) Area() float64      { return q.s * q.s }
func (q Sq) Perimeter() float64 { return 4 * q.s }
func (q *Sq) String() string    { return "square" }
func (q Sq) Len() int           { return 4 }
func (q Sq) Side() float64      { return q.s }
`,
			"cmd/m/main.go": `package main

import "citymesh/internal/a"

func main() {
	var s a.Shape = a.Sq{}
	if p, ok := s.(interface{ Perimeter() float64 }); ok {
		_ = p.Perimeter()
	}
}
`,
		}, nil, []string{"internal/a.Sq.Len", "internal/a.Sq.Side"}, nil},
		{"an unexported name used only in a test file is flagged", map[string]string{
			"internal/a/a.go": `package a

func F() { g() }

func g() {}

func h() {}
`,
			"internal/a/a_test.go": `package a

func use() { h() }
`,
			"cmd/m/main.go": `package main

import "citymesh/internal/a"

func main() { a.F() }
`,
		}, nil, []string{"internal/a.h"}, nil},
		{"an unexported method an interface declares is exempt", map[string]string{
			"internal/a/a.go": `package a

type walker interface{ step() int }

type leg struct{}

func (leg) step() int { return 1 }
func (leg) rest() int { return 0 }

func Walk() int {
	var w walker = leg{}
	return w.step()
}
`,
			"cmd/m/main.go": `package main

import "citymesh/internal/a"

func main() { a.Walk() }
`,
		}, nil, []string{"internal/a.leg.rest"}, nil},
		{"a stale allowlist entry fails", map[string]string{
			"internal/a/a.go": twoFuncs,
			"cmd/m/main.go":   callG,
		}, map[string]string{
			"internal/a.F": "unused",
			"internal/a.G": "used since",
			"internal/a.H": "deleted since",
		}, nil, []string{"internal/a.G", "internal/a.H"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newUseLint(fset, std)
			for path, src := range tc.files {
				f, err := parser.ParseFile(fset, path, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				l.add(path, f)
			}
			unused, _, err := l.run()
			if err != nil {
				t.Fatal(err)
			}
			unlisted, stale := allowlistDrift(unused, tc.allow)
			if !slices.Equal(unlisted, tc.unlisted) || !slices.Equal(stale, tc.stale) {
				t.Errorf("unlisted = %q, stale = %q; want %q, %q", unlisted, stale, tc.unlisted, tc.stale)
			}
		})
	}
}
