// clonecheck: types that hold a sync.Mutex (xgene.Machine does) or
// define a pointer-receiver Clone method have identity — a shallow value
// copy duplicates the lock state and forks the simulated board without
// its construction invariants. Share them through a pointer, or copy
// through .Clone() where the type has one. This generalizes vet's
// copylocks to the project's identity types.

package lint

import (
	"go/ast"
	"go/types"
)

// NewClonecheck builds the clonecheck analyzer.
func NewClonecheck() *Analyzer {
	a := &Analyzer{
		Name: "clonecheck",
	}
	a.Run = func(pass *Pass) error {
		c := &clonecheck{pass: pass, cache: map[*types.Named]string{}}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						c.checkValueUse(rhs, "assigned")
					}
				case *ast.ValueSpec:
					for _, v := range n.Values {
						c.checkValueUse(v, "assigned")
					}
				case *ast.CallExpr:
					for _, arg := range n.Args {
						c.checkValueUse(arg, "passed")
					}
				case *ast.RangeStmt:
					if n.Value != nil {
						if tv, ok := pass.Info.Types[n.Value]; ok {
							if why := c.protected(tv.Type); why != "" {
								pass.Reportf(n.Value.Pos(),
									"range copies %s by value (%s); iterate over pointers or use Clone()",
									typeName(tv.Type), why)
							}
						}
					}
				case *ast.FuncDecl:
					c.checkParams(n.Type)
				case *ast.FuncLit:
					c.checkParams(n.Type)
				}
				return true
			})
		}
		return nil
	}
	return a
}

type clonecheck struct {
	pass  *Pass
	cache map[*types.Named]string
}

// checkValueUse flags expressions that materialize a protected value:
// pointer dereferences and plain reads of value-typed variables.
// Composite literals are construction, not copying, and stay legal.
func (c *clonecheck) checkValueUse(e ast.Expr, how string) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		c.checkValueUse(e.X, how)
		return
	case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr:
	default:
		return
	}
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.IsType() {
		return
	}
	if why := c.protected(tv.Type); why != "" {
		c.pass.Reportf(e.Pos(),
			"%s copied by value (%s value %s); use Clone() or a pointer",
			typeName(tv.Type), why, how)
	}
}

// checkParams flags value parameters of protected type: every call site
// would copy.
func (c *clonecheck) checkParams(ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		tv, ok := c.pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if why := c.protected(tv.Type); why != "" {
			c.pass.Reportf(field.Type.Pos(),
				"parameter takes %s by value (%s); accept a pointer and Clone() when ownership is needed",
				typeName(tv.Type), why)
		}
	}
}

// protected classifies a type: non-empty result describes why copying it
// by value is forbidden.
func (c *clonecheck) protected(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if why, ok := c.cache[named]; ok {
		return why
	}
	c.cache[named] = "" // cycle guard
	why := ""
	if isSyncLock(named) {
		why = "it is a lock"
	} else if hasPointerClone(named) {
		why = "it defines Clone"
	} else if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if inner := c.protected(ft); inner != "" {
				why = "it holds " + typeName(ft)
				break
			}
		}
	}
	c.cache[named] = why
	return why
}

// isSyncLock matches sync.Mutex / sync.RWMutex themselves.
func isSyncLock(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// hasPointerClone reports whether the type declares a pointer-receiver
// Clone method.
func hasPointerClone(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "Clone" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if _, ok := sig.Recv().Type().(*types.Pointer); ok {
			return true
		}
	}
	return false
}

// typeName renders a type compactly for diagnostics.
func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
