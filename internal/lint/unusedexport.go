// unusedexport: a declaration in an internal package that no non-test
// code refers to is dead weight — it is compiled, documented and kept
// correct for nobody. The analyzer reports every package-level func,
// method, type, const and var, and every exported struct field, in a
// package whose import path has an `internal` element, that no non-test
// file of the load refers to outside its own declaration. Unexported
// declarations count too, so a helper that only a deleted function used
// shows up on the next run.
//
// References are type-based: go/types' Uses and Selections over the
// shared load, so a call from cmd/ or examples/ keeps a declaration and
// a same-named method elsewhere does not. Never reported: init, main,
// blank declarations, a method that implements a method of an interface
// type in the load or its imports (reached by dynamic dispatch), and the
// fields of a struct that carries tags (encoding/json reads them).
// Public packages (api/v1, client/v1) are outside the scope.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewUnusedexport builds the unusedexport analyzer.
func NewUnusedexport() *Analyzer {
	a := &Analyzer{
		Name: "unusedexport",
		Doc:  "flag declarations in internal packages that no non-test code refers to",
	}
	a.Run = func(pass *Pass) error {
		if !internalPath(pass.Pkg.Path()) {
			return nil
		}
		idx := pass.uses()
		report := func(id *ast.Ident, kind, name string) {
			pass.Reportf(id.Pos(), "%s", unusedMessage(kind, name))
		}
		for _, file := range pass.Files {
			if pass.IsTestFile(file.Pos()) {
				continue
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pass.Info.Defs[d.Name].(*types.Func)
					if !ok || idx.used[fn] || d.Name.Name == "_" {
						continue
					}
					if d.Recv == nil {
						if d.Name.Name != "init" && d.Name.Name != "main" {
							report(d.Name, "func", d.Name.Name)
						}
						continue
					}
					if !idx.implements(fn) {
						report(d.Name, "method", methodName(fn))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj := pass.Info.Defs[s.Name]; obj != nil && !idx.used[obj] && s.Name.Name != "_" {
								report(s.Name, "type", s.Name.Name)
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok || hasTags(st) {
								continue
							}
							for _, f := range st.Fields.List {
								for _, id := range fieldIdents(f) {
									if obj := pass.Info.Defs[id]; obj != nil && obj.Exported() && !idx.used[obj] {
										report(id, "field", s.Name.Name+"."+id.Name)
									}
								}
							}
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, id := range s.Names {
								if obj := pass.Info.Defs[id]; obj != nil && !idx.used[obj] && id.Name != "_" {
									report(id, kind, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	}
	return a
}

// unusedMessage is the finding text for one declaration; the repo-clean
// audit keys each kept declaration by it.
func unusedMessage(kind, name string) string {
	return kind + " " + name + " has no reference outside tests"
}

// internalPath reports whether an import path has an `internal` element.
func internalPath(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// methodName renders a method as (*T).M or T.M.
func methodName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return "(*" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// hasTags reports whether any field of the struct carries a tag.
func hasTags(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag != nil {
			return true
		}
	}
	return false
}

// fieldIdents returns a field's names, or the type name of an embedded
// field.
func fieldIdents(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	t := f.Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []*ast.Ident{t}
	case *ast.SelectorExpr:
		return []*ast.Ident{t.Sel}
	}
	return nil
}

// useIndex is the program-wide reference set unusedexport reads: every
// object a non-test file refers to outside its own declaration, and
// every interface method set in the load or its imports, by method name.
type useIndex struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// uses returns the program's use index, building it on first use and
// rebuilding when packages were added since (fixture loads in tests).
func (p *Pass) uses() *useIndex {
	prog := p.prog
	if prog.usesVal == nil || prog.usesPkgs != len(prog.Packages) {
		prog.usesVal = p.buildUses()
		prog.usesPkgs = len(prog.Packages)
	}
	return prog.usesVal
}

func (p *Pass) buildUses() *useIndex {
	idx := &useIndex{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	seenIface := map[*types.Interface]bool{}
	addIface := func(it *types.Interface) {
		if seenIface[it] || !it.IsMethodSet() {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx.ifaces[name] = append(idx.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}

	for _, pkg := range p.prog.Packages {
		visit(pkg.Types)
		info := pkg.Info
		for _, file := range pkg.Files {
			if p.IsTestFile(file.Pos()) {
				continue
			}
			// A use inside the object's own declaration (recursion, a
			// type naming itself) does not count.
			own := map[types.Object]ast.Node{}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[info.Defs[d.Name]] = d
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							own[info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, id := range s.Names {
								own[info.Defs[id]] = s
							}
						}
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := origin(info.Uses[n])
					if obj == nil {
						break
					}
					if d := own[obj]; d != nil && d.Pos() <= n.Pos() && n.Pos() < d.End() {
						break
					}
					idx.used[obj] = true
				case *ast.SelectorExpr:
					// x.f through an embedded field uses every field on
					// the path, not only the one named.
					if sel := info.Selections[n]; sel != nil {
						t := sel.Recv()
						path := sel.Index()
						for _, i := range path[:len(path)-1] {
							st, ok := derefUnder(t).(*types.Struct)
							if !ok {
								break
							}
							f := st.Field(i)
							idx.used[f.Origin()] = true
							t = f.Type()
						}
					}
				case *ast.CompositeLit:
					// An unkeyed struct literal sets every field.
					if len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
						break
					}
					if st, ok := derefUnder(info.TypeOf(n)).(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							idx.used[st.Field(i).Origin()] = true
						}
					}
				case *ast.InterfaceType:
					if it, ok := info.TypeOf(n).(*types.Interface); ok {
						addIface(it)
					}
				}
				return true
			})
		}
	}
	return idx
}

// implements reports whether method fn implements a method of some
// interface in the index. A generic receiver is matched by name alone.
func (idx *useIndex) implements(fn *types.Func) bool {
	cands := idx.ifaces[fn.Name()]
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return len(cands) > 0
	}
	ptr := types.NewPointer(named)
	for _, it := range cands {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// derefUnder is t's underlying type, through one pointer.
func derefUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}
