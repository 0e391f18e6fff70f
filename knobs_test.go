package citymesh_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
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

// fileTypes resolves type expressions as written in one file to the type
// they name. An external test package (package x_test) declares its own
// types, so its unqualified names resolve to nothing here.
type fileTypes struct {
	dir      string
	imports  map[string]string
	external bool
}

func newFileTypes(path string, f *ast.File) fileTypes {
	return fileTypes{
		dir:      filepath.ToSlash(filepath.Dir(path)),
		imports:  fileImports(f),
		external: strings.HasSuffix(f.Name.Name, "_test"),
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
		return typeKey{ft.dir, e.Name}, !ft.external
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

// TestEveryConfigFieldIsSet fails on a knob nothing turns: an exported
// field of a knob struct (see isKnobStruct) in non-test internal/ code that
// no Go file of the repository writes, tests and bench/ included. Such a
// field is always zero, so its zero-means-default branch is the only one
// that ever runs; the default belongs in the code as a constant instead.
//
// The check is syntactic. A keyed composite literal of the struct's type
// (named, through an alias such as citymesh.Region, or elided inside a
// slice or map literal) writes the keys it names, and a positional one
// writes every field. An assignment, ++/-- or &x.F writes field F of x's
// type where exprType can tell it, and every knob field named F where it
// cannot.
func TestEveryConfigFieldIsSet(t *testing.T) {
	knobs := map[typeKey][]string{}
	d := decls{
		aliases: map[typeKey]typeKey{},
		fields:  map[typeKey]map[string]typeKey{},
		results: map[typeKey]typeKey{},
	}
	parseModule(t, false, func(path string, f *ast.File) {
		ft := newFileTypes(path, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil && fd.Type.Results != nil {
					if k, ok := ft.resolve(fd.Type.Results.List[0].Type); ok {
						d.results[typeKey{ft.dir, fd.Name.Name}] = k
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
						d.aliases[k] = to
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				d.fields[k] = map[string]typeKey{}
				knob := strings.HasPrefix(ft.dir, "internal/") && isKnobStruct(k)
				if knob {
					knobs[k] = []string{}
				}
				for _, fl := range st.Fields.List {
					ftype, typed := ft.resolve(fl.Type)
					for _, name := range fl.Names {
						if typed {
							d.fields[k][name.Name] = ftype
						}
						if knob && name.IsExported() {
							knobs[k] = append(knobs[k], name.Name)
						}
					}
				}
			}
		}
	})
	if len(knobs) == 0 {
		t.Fatal("no knob structs found: run from the module root")
	}

	written := map[fieldRef]bool{}
	writtenByName := map[string]bool{}
	parseModule(t, true, func(path string, f *ast.File) {
		ft := newFileTypes(path, f)
		selWrite := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if k, ok := ft.exprType(d, sel.X); ok {
				written[fieldRef{d.canon(k), sel.Sel.Name}] = true
			} else {
				writtenByName[sel.Sel.Name] = true
			}
		}
		elided := map[*ast.CompositeLit]ast.Expr{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
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
				k = d.canon(k)
				if _, knob := knobs[k]; !knob {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						for _, name := range knobs[k] {
							written[fieldRef{k, name}] = true
						}
						break
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						written[fieldRef{k, key.Name}] = true
					}
				}
			}
			return true
		})
	})

	keys := make([]typeKey, 0, len(knobs))
	total := 0
	for k := range knobs {
		keys = append(keys, k)
		total += len(knobs[k])
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dir != keys[j].dir {
			return keys[i].dir < keys[j].dir
		}
		return keys[i].name < keys[j].name
	})
	t.Logf("%d exported fields in %d knob structs", total, len(keys))
	for _, k := range keys {
		for _, name := range knobs[k] {
			if !written[fieldRef{k, name}] && !writtenByName[name] {
				t.Errorf("%s.%s.%s is never set anywhere in the repository: delete it, or make its default a constant",
					k.dir, k.name, name)
			}
		}
	}
}
