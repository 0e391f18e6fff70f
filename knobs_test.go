package citymesh_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// typeKey names a type by its package's slash-separated directory under the
// repository root ("internal/sim", "." for the root package) and its name.
type typeKey struct{ dir, name string }

// fieldRef names one field of a struct type.
type fieldRef struct {
	typ  typeKey
	name string
}

// isKnobStruct reports whether a struct type holds knobs: every *Config and
// *Options struct, plus the adversary, defense and region descriptions.
func isKnobStruct(k typeKey) bool {
	if strings.HasSuffix(k.name, "Config") || strings.HasSuffix(k.name, "Options") {
		return true
	}
	switch k {
	case typeKey{"internal/sim", "Adversary"}, typeKey{"internal/sim", "Defense"},
		typeKey{"internal/internetwork", "Region"}:
		return true
	}
	return false
}

// fileTypes resolves type expressions as written in one non-test file to
// the type they name.
type fileTypes struct {
	dir     string
	imports map[string]string
}

func newFileTypes(path string, f *ast.File) fileTypes {
	return fileTypes{
		dir:     filepath.ToSlash(filepath.Dir(path)),
		imports: fileImports(f),
	}
}

// decls holds what pass one learns of the module's declarations, each type
// already resolved in its declaring file: alias targets, struct field types
// and the first result type of package-level functions.
type decls struct {
	aliases map[typeKey]typeKey
	fields  map[typeKey]map[string]typeKey
	results map[typeKey]typeKey
}

func (d decls) canon(k typeKey) typeKey {
	for {
		to, ok := d.aliases[k]
		if !ok {
			return k
		}
		k = to
	}
}

func (ft fileTypes) resolve(e ast.Expr) (typeKey, bool) {
	switch e := e.(type) {
	case *ast.StarExpr:
		return ft.resolve(e.X)
	case *ast.ParenExpr:
		return ft.resolve(e.X)
	case *ast.Ident:
		return typeKey{ft.dir, e.Name}, true
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok {
			return typeKey{}, false
		}
		p := ft.imports[pkg.Name]
		if p == "citymesh" {
			return typeKey{".", e.Sel.Name}, true
		}
		if rel, ok := strings.CutPrefix(p, "citymesh/"); ok {
			return typeKey{rel, e.Sel.Name}, true
		}
	}
	return typeKey{}, false
}

// exprType is the named type of e where the syntax shows it: a variable or
// parameter declared with a type or a composite literal, a field of a value
// of known struct type, or a call of a package-level function.
func (ft fileTypes) exprType(d decls, e ast.Expr) (typeKey, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ft.exprType(d, e.X)
	case *ast.StarExpr:
		return ft.exprType(d, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ft.exprType(d, e.X)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return ft.resolve(e.Type)
		}
	case *ast.CallExpr:
		if k, ok := ft.resolve(e.Fun); ok {
			k, ok = d.results[d.canon(k)]
			return k, ok
		}
	case *ast.SelectorExpr:
		if base, ok := ft.exprType(d, e.X); ok {
			k, ok := d.fields[d.canon(base)][e.Sel.Name]
			return k, ok
		}
	case *ast.Ident:
		if e.Obj == nil || e.Obj.Kind != ast.Var {
			return typeKey{}, false
		}
		switch decl := e.Obj.Decl.(type) {
		case *ast.Field:
			return ft.resolve(decl.Type)
		case *ast.ValueSpec:
			if decl.Type != nil {
				return ft.resolve(decl.Type)
			}
			for i, name := range decl.Names {
				if name.Name == e.Name && i < len(decl.Values) && len(decl.Values) == len(decl.Names) {
					return ft.exprType(d, decl.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range decl.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == e.Name && len(decl.Rhs) == len(decl.Lhs) {
					return ft.exprType(d, decl.Rhs[i])
				}
			}
		}
	}
	return typeKey{}, false
}

// knobLint holds TestEveryConfigFieldIsSet's two passes: declare learns
// the module's declarations and its knob fields, then scanWrites records
// which of those fields some file writes.
type knobLint struct {
	d             decls
	knobs         map[typeKey][]string
	written       map[fieldRef]bool
	writtenByName map[string]bool
}

func newKnobLint() *knobLint {
	return &knobLint{
		d: decls{
			aliases: map[typeKey]typeKey{},
			fields:  map[typeKey]map[string]typeKey{},
			results: map[typeKey]typeKey{},
		},
		knobs:         map[typeKey][]string{},
		written:       map[fieldRef]bool{},
		writtenByName: map[string]bool{},
	}
}

// declare is pass one, over a non-test file: its aliases, struct field
// types, function result types and, under internal/, knob fields.
func (l *knobLint) declare(path string, f *ast.File) {
	ft := newFileTypes(path, f)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Recv == nil && fd.Type.Results != nil {
				if k, ok := ft.resolve(fd.Type.Results.List[0].Type); ok {
					l.d.results[typeKey{ft.dir, fd.Name.Name}] = k
				}
			}
			continue
		}
		gd := decl.(*ast.GenDecl)
		if gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			k := typeKey{ft.dir, ts.Name.Name}
			if ts.Assign.IsValid() {
				if to, ok := ft.resolve(ts.Type); ok {
					l.d.aliases[k] = to
				}
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			l.d.fields[k] = map[string]typeKey{}
			knob := strings.HasPrefix(ft.dir, "internal/") && isKnobStruct(k)
			if knob {
				l.knobs[k] = []string{}
			}
			for _, fl := range st.Fields.List {
				ftype, typed := ft.resolve(fl.Type)
				for _, name := range fl.Names {
					if typed {
						l.d.fields[k][name.Name] = ftype
					}
					if knob && name.IsExported() {
						l.knobs[k] = append(l.knobs[k], name.Name)
					}
				}
			}
		}
	}
}

// selector resolves x.F to the field it names, where exprType can tell
// x's type.
func (l *knobLint) selector(ft fileTypes, e ast.Expr) (*ast.SelectorExpr, fieldRef, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, fieldRef{}, false
	}
	k, ok := ft.exprType(l.d, sel.X)
	return sel, fieldRef{l.d.canon(k), sel.Sel.Name}, ok
}

// selfDefault returns the assignment of a zero-means-default branch,
// `if c.X <= 0 { c.X = d }`, that does not count as a write of X: the
// assignment is the only statement of the if's body, the condition reads
// the same field, and the file is in the package that declares it. In
// another package the same branch is a caller overriding a default, and
// counts.
func (l *knobLint) selfDefault(ft fileTypes, s *ast.IfStmt) *ast.AssignStmt {
	if len(s.Body.List) != 1 {
		return nil
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return nil
	}
	_, ref, ok := l.selector(ft, as.Lhs[0])
	if !ok || ref.typ.dir != ft.dir {
		return nil
	}
	read := false
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if _, r, ok := l.selector(ft, e); ok && r == ref {
				read = true
			}
		}
		return !read
	})
	if !read {
		return nil
	}
	return as
}

// scanWrites is pass two, over any Go file of the repository, bench/
// included: it records each knob field the file writes. A test file or a
// file under examples/ writes nothing, since neither is a caller that needs
// a value of its own.
func (l *knobLint) scanWrites(path string, f *ast.File) {
	if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "examples/") {
		return
	}
	ft := newFileTypes(path, f)
	selWrite := func(e ast.Expr) {
		sel, ref, ok := l.selector(ft, e)
		switch {
		case ok:
			l.written[ref] = true
		case sel != nil:
			l.writtenByName[sel.Sel.Name] = true
		}
	}
	elided := map[*ast.CompositeLit]ast.Expr{}
	defaults := map[*ast.AssignStmt]bool{}
	ownDefaults := false
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if as := l.selfDefault(ft, n); as != nil {
				defaults[as] = true
			}
		case *ast.AssignStmt:
			if defaults[n] {
				return true
			}
			for _, lhs := range n.Lhs {
				selWrite(lhs)
			}
		case *ast.IncDecStmt:
			selWrite(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selWrite(n.X)
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			if elem != nil {
				if star, ok := elem.(*ast.StarExpr); ok {
					elem = star.X
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil {
						elided[cl] = elem
					}
				}
				return true
			}
			k, ok := ft.resolve(typ)
			if !ok {
				return true
			}
			k = l.d.canon(k)
			if _, knob := l.knobs[k]; !knob || (ownDefaults && k.dir == ft.dir) {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					for _, name := range l.knobs[k] {
						l.written[fieldRef{k, name}] = true
					}
					break
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					l.written[fieldRef{k, key.Name}] = true
				}
			}
		}
		return true
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		ownDefaults = ok && strings.HasPrefix(fd.Name.Name, "Default")
		ast.Inspect(decl, visit)
	}
}

// unset returns every knob field nothing writes, as "dir.Type.Field" in
// sorted order, and the number of knob fields.
func (l *knobLint) unset() (names []string, total int) {
	keys := make([]typeKey, 0, len(l.knobs))
	for k := range l.knobs {
		keys = append(keys, k)
		total += len(l.knobs[k])
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dir != keys[j].dir {
			return keys[i].dir < keys[j].dir
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		for _, name := range l.knobs[k] {
			if !l.written[fieldRef{k, name}] && !l.writtenByName[name] {
				names = append(names, k.dir+"."+k.name+"."+name)
			}
		}
	}
	return names, total
}

// unsetAllowed lists the knob fields that nothing writes but stay fields,
// each with its reason. The list can only shrink: TestEveryConfigFieldIsSet
// fails on an entry that is written or gone.
var unsetAllowed = map[string]string{
	"internal/core.Config.APDensity":         "bench/sends.go reads it to build its own mesh, and bench/ is frozen",
	"internal/core.Config.TransmissionRange": "bench/sends.go reads it to build its own mesh, and bench/ is frozen",
	"internal/core.Config.PredictGapFactor":  "bench/sends.go reads it to build its own planner, and bench/ is frozen",
}

// TestEveryConfigFieldIsSet fails on a knob no caller turns: an exported
// field of a knob struct (see isKnobStruct) in non-test internal/ code that
// no non-test Go file of the repository outside examples/ writes. Writes
// in cmd/, bench/ and internal/ count; a test or an example that sets a
// field is not a deployment that needs the other value. Such a field is
// always zero, so its zero-means-default branch is the only one that ever
// runs; the default belongs in the code as a constant instead.
//
// The check is syntactic. A keyed composite literal of the struct's type
// (named, through an alias such as citymesh.Region, or elided inside a
// slice or map literal) writes the keys it names, and a positional one
// writes every field. An assignment, ++/-- or &x.F writes field F of x's
// type where exprType can tell it, and every knob field named F where it
// cannot. One assignment is not a write: a field's own default branch,
// `if c.X <= 0 { c.X = d }`, where the assignment is the only statement of
// the if's body, the if's condition reads the same field, and the file is
// in the package that declares the field (see selfDefault). The same
// branch in another package is a caller overriding the default, and is a
// write. Nor is a literal of the struct inside a function whose name
// starts with Default, in the package that declares the struct: that is
// where the defaults are stated. The same literal in another package's
// Default function, or in any other function, is a write. unsetAllowed
// lists the exceptions.
func TestEveryConfigFieldIsSet(t *testing.T) {
	l := newKnobLint()
	parseModule(t, token.NewFileSet(), false, l.declare)
	if len(l.knobs) == 0 {
		t.Fatal("no knob structs found: run from the module root")
	}
	parseModule(t, token.NewFileSet(), true, l.scanWrites)
	unset, total := l.unset()
	t.Logf("%d exported fields in %d knob structs", total, len(l.knobs))
	unlisted, stale := allowlistDrift(unset, unsetAllowed)
	for _, name := range unlisted {
		t.Errorf("%s is never set anywhere in the repository: delete it, or make its default a constant", name)
	}
	for _, name := range stale {
		t.Errorf("%s is in unsetAllowed but is set or gone: take it off the list", name)
	}
}

// TestKnobWriteRule runs the lint's two passes over small sources, the
// first over the non-test files only, as TestEveryConfigFieldIsSet does: a
// field's own default branch and its line in the Default function's
// literal are not writes in its declaring package, nor is anything in a
// test file or under examples/; everything else that assigns the field is,
// and a stale allowlist entry fails.
func TestKnobWriteRule(t *testing.T) {
	const decl = `package a

type Config struct{ X, Y int }

var base = Config{Y: 1}
`
	for _, tc := range []struct {
		name         string
		files        map[string]string
		allow        map[string]string
		unset, stale []string
	}{
		{"self-default in the declaring package", map[string]string{
			"internal/a/a.go": decl,
			"internal/a/x.go": `package a

func (c *Config) fill() {
	if c.X == 0 {
		c.X = 3
	}
}
`}, nil, []string{"internal/a.Config.X"}, nil},
		{"self-default in another package", map[string]string{
			"internal/a/a.go": decl,
			"internal/b/b.go": `package b

import "citymesh/internal/a"

func f(c a.Config) a.Config {
	if c.X <= 0 {
		c.X = 3
	}
	return c
}
`}, nil, nil, nil},
		{"plain assignment", map[string]string{
			"internal/a/a.go": decl + `
func tune(c *Config) { c.X = 2 }
`}, nil, nil, nil},
		{"keyed literal", map[string]string{
			"internal/a/a.go": decl,
			"cmd/b/main.go": `package main

import "citymesh/internal/a"

var c = a.Config{X: 2}
`}, nil, nil, nil},
		{"branch with a second statement", map[string]string{
			"internal/a/a.go": decl + `
func (c *Config) fill() {
	if c.X <= 0 {
		c.X = 3
		c.Y++
	}
}
`}, nil, nil, nil},
		{"condition reads another field", map[string]string{
			"internal/a/a.go": decl + `
func (c *Config) fill() {
	if c.Y > 4 {
		c.X = 3
	}
}
`}, nil, nil, nil},
		{"literal in the declaring package's Default function", map[string]string{
			"internal/a/a.go": decl + `
func DefaultConfig() Config { return Config{X: 3} }
`}, nil, []string{"internal/a.Config.X"}, nil},
		{"literal in another package's Default function", map[string]string{
			"internal/a/a.go": decl,
			"internal/b/b.go": `package b

import "citymesh/internal/a"

func DefaultA() a.Config { return a.Config{X: 3} }
`}, nil, nil, nil},
		{"literal in a function not named Default", map[string]string{
			"internal/a/a.go": decl + `
func newConfig() Config { return Config{X: 3} }
`}, nil, nil, nil},
		{"write in a same-package test file", map[string]string{
			"internal/a/a.go": decl,
			"internal/a/a_test.go": `package a

func tune(c *Config) { c.X = 2 }
`}, nil, []string{"internal/a.Config.X"}, nil},
		{"write in an external test package", map[string]string{
			"internal/a/a.go": decl,
			"internal/a/x_test.go": `package a_test

import "citymesh/internal/a"

var c = a.Config{X: 2}
`}, nil, []string{"internal/a.Config.X"}, nil},
		{"write under examples", map[string]string{
			"internal/a/a.go": decl,
			"examples/b/main.go": `package main

import "citymesh/internal/a"

var c = a.Config{X: 2}
`}, nil, []string{"internal/a.Config.X"}, nil},
		{"write in cmd", map[string]string{
			"internal/a/a.go": decl,
			"cmd/b/main.go": `package main

import "citymesh/internal/a"

func tune(c *a.Config) { c.X = 2 }
`}, nil, nil, nil},
		{"write in bench", map[string]string{
			"internal/a/a.go": decl,
			"bench/b.go": `package main

import "citymesh/internal/a"

func tune(c *a.Config) { c.X = 2 }
`}, nil, nil, nil},
		{"stale allowlist entry", map[string]string{
			"internal/a/a.go": decl + `
func tune(c *Config) { c.X = 2 }
`}, map[string]string{"internal/a.Config.X": "why"}, nil, []string{"internal/a.Config.X"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			l := newKnobLint()
			parsed := map[string]*ast.File{}
			for path, src := range tc.files {
				f, err := parser.ParseFile(fset, path, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				parsed[path] = f
				if !strings.HasSuffix(path, "_test.go") {
					l.declare(path, f)
				}
			}
			for path, f := range parsed {
				l.scanWrites(path, f)
			}
			unset, _ := l.unset()
			unlisted, stale := allowlistDrift(unset, tc.allow)
			if !slices.Equal(unlisted, tc.unset) || !slices.Equal(stale, tc.stale) {
				t.Errorf("unset = %q, stale = %q; want %q, %q", unlisted, stale, tc.unset, tc.stale)
			}
		})
	}
}
