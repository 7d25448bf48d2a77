// unusedexport: a declaration in an internal package that no non-test
// code refers to is dead weight — it is compiled, documented and kept
// correct for nobody. The analyzer reports every package-level func,
// method, type, const and var, in a package whose import path has an
// `internal` element, that no non-test file of the load refers to
// outside its own declaration, and every field of a package-level struct
// type there that no non-test file reads. Unexported declarations count
// too, so a helper that only a deleted function used shows up on the
// next run.
//
// A field is written, not read, where it is the whole left side of an
// `=` or the key of a composite literal; every other reference reads it:
// `op=`, `++`, `&x.f`, a selector through it, and any use as a value.
// So state that is set and never consulted is reported like a function
// nobody calls.
//
// A named type, its methods and its constants form one group: a type
// that no non-test code outside its group refers to is reported with
// its whole group, since a value of it can reach nothing else. So an
// enum whose only references are its own String method and constants
// is dead, though the method implements fmt.Stringer.
//
// References are type-based: go/types' Uses and Selections over the
// shared load, so a call from cmd/ or examples/ keeps a declaration and
// a same-named method elsewhere does not. Never reported, outside a
// dead group: init, main, blank declarations, a method that implements
// a method of an interface type in the load or its imports (reached by
// dynamic dispatch), and the fields of a struct that carries tags
// (encoding/json reads them). Public packages (api/v1, client/v1) are
// outside the scope.

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
	}
	a.Run = func(pass *Pass) error {
		if !internalPath(pass.Pkg.Path()) {
			return nil
		}
		idx := pass.uses()
		// check reports a declaration as a member of a dead type group,
		// or else as unused when unused holds.
		check := func(id *ast.Ident, kind, name string, obj types.Object, unused bool) {
			if g := typeGroup(obj); g != nil && g.Pkg() == pass.Pkg && !idx.outside[g] {
				pass.Reportf(id.Pos(), "%s", deadGroupMessage(kind, name, g.Name()))
			} else if unused {
				pass.Reportf(id.Pos(), "%s", unusedMessage(kind, name))
			}
		}
		for _, file := range pass.Files {
			if pass.IsTestFile(file.Pos()) {
				continue
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pass.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Name.Name == "_" {
						continue
					}
					if d.Recv == nil {
						check(d.Name, "func", d.Name.Name, fn, !idx.used[fn] && d.Name.Name != "init" && d.Name.Name != "main")
					} else {
						check(d.Name, "method", methodName(fn), fn, !idx.used[fn] && !idx.implements(fn))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj := pass.Info.Defs[s.Name]; obj != nil && s.Name.Name != "_" {
								check(s.Name, "type", s.Name.Name, obj, !idx.used[obj])
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok || hasTags(st) {
								continue
							}
							for _, f := range st.Fields.List {
								for _, id := range fieldIdents(f) {
									if obj := pass.Info.Defs[id]; obj != nil && !idx.used[obj] && id.Name != "_" {
										check(id, "field", s.Name.Name+"."+id.Name, obj, true)
									}
								}
							}
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, id := range s.Names {
								if obj := pass.Info.Defs[id]; obj != nil && id.Name != "_" {
									check(id, kind, id.Name, obj, !idx.used[obj])
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
	if kind == "field" {
		return kind + " " + name + " is never read outside tests"
	}
	return kind + " " + name + " has no reference outside tests"
}

// deadGroupMessage is the finding text for a member of type typ's dead
// group.
func deadGroupMessage(kind, name, typ string) string {
	const dead = " is referenced only by its own methods and constants outside tests"
	if kind == "type" {
		return kind + " " + name + dead
	}
	return kind + " " + name + ": type " + typ + dead
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
// object a non-test file refers to outside its own declaration (for a
// field: reads it), every type group a non-test file refers to outside
// the group's declarations, and every interface method set in the load
// or its imports, by method name.
type useIndex struct {
	used    map[types.Object]bool
	outside map[*types.TypeName]bool
	ifaces  map[string][]*types.Interface
}

// typeGroup is the package-level named type whose group obj belongs to
// — the type itself, one of its methods, or a constant of it declared
// in its package — or nil. Generic types and aliases form no group.
func typeGroup(obj types.Object) *types.TypeName {
	var t types.Type
	switch o := obj.(type) {
	case *types.TypeName:
		if o.IsAlias() {
			return nil
		}
		t = o.Type()
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil
		}
		t = recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
	case *types.Const:
		t = o.Type()
	default:
		return nil
	}
	n, ok := t.(*types.Named)
	if !ok || n.TypeParams().Len() > 0 {
		return nil
	}
	tn := n.Obj()
	if tn.Pkg() == nil || tn.Pkg() != obj.Pkg() || tn.Parent() != tn.Pkg().Scope() {
		return nil
	}
	return tn
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
	idx := &useIndex{used: map[types.Object]bool{}, outside: map[*types.TypeName]bool{}, ifaces: map[string][]*types.Interface{}}
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
			writes := fieldWrites(info, file)
			var group *types.TypeName // the group of the declaration being walked
			visit := func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := origin(info.Uses[n])
					if obj == nil || writes[n] {
						break
					}
					if d := own[obj]; d != nil && d.Pos() <= n.Pos() && n.Pos() < d.End() {
						break
					}
					idx.used[obj] = true
					if g := typeGroup(obj); g != nil && g != group {
						idx.outside[g] = true
					}
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
				case *ast.BinaryExpr:
					// Comparing struct values reads every field.
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAllFields(idx.used, info.TypeOf(n.X))
					}
				case *ast.MapType:
					// A map hashes and compares every field of its key.
					if t, ok := info.TypeOf(n).(*types.Map); ok {
						readAllFields(idx.used, t.Key())
					}
				case *ast.InterfaceType:
					if it, ok := info.TypeOf(n).(*types.Interface); ok {
						addIface(it)
					}
				}
				return true
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					group = typeGroup(info.Defs[d.Name])
					ast.Inspect(d, visit)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						group = nil
						switch s := spec.(type) {
						case *ast.TypeSpec:
							group = typeGroup(info.Defs[s.Name])
						case *ast.ValueSpec:
							group = typeGroup(info.Defs[s.Names[0]])
						}
						ast.Inspect(spec, visit)
					}
				}
			}
		}
	}
	return idx
}

// readAllFields marks every field of struct type t read, through nested
// struct and array fields: what comparing two values of t reads. Go has
// no recursive value types, so the walk ends.
func readAllFields(used map[types.Object]bool, t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		readAllFields(used, u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			used[f.Origin()] = true
			readAllFields(used, f.Type())
		}
	}
}

// fieldWrites returns the identifiers in file that write a field
// without reading it: the selector of a field that is a whole left-hand
// operand of `=`, and the keys of struct composite literals.
func fieldWrites(info *types.Info, file *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				break
			}
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						w[sel.Sel] = true
					}
				}
			}
		case *ast.CompositeLit:
			if _, ok := derefUnder(info.TypeOf(n)).(*types.Struct); !ok {
				break
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		}
		return true
	})
	return w
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
