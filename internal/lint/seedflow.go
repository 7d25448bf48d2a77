// seedflow: inside the campaign engine, every seed handed to a stream
// constructor — rand.NewSource or a configured sink such as randsrc.New
// — must trace back to core.CampaignSeed (or a derived seed) — never a
// literal, never a wall clock. Literal seeds silently decouple a
// campaign from its identity-derived stream, which is exactly how
// "resumed study ≠ uninterrupted study" regressions are born.
//
// The analyzer does cross-package fact passing over the shared load:
// a function whose parameter flows into a constructor is marked as a
// seed sink, and every call to it — in this package or any dependent —
// has that argument vetted by the same rules as a direct constructor
// call.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// seedSinkFact marks a function whose param at Index feeds a constructor.
type seedSinkFact struct{ Index int }

// NewSeedflow builds the seedflow analyzer for a config.
func NewSeedflow(cfg Config) *Analyzer {
	scope := newPkgSet(cfg.SeedflowPkgs)
	sources := map[string]bool{}
	for _, s := range cfg.SeedSources {
		sources[s] = true
	}
	roots := newPkgSet(cfg.SeedSinks)
	a := &Analyzer{
		Name: "seedflow",
		Doc:  "stream seeds must derive from core.CampaignSeed",
	}
	a.Run = func(pass *Pass) error {
		if !scope[pass.Pkg.Path()] {
			return nil
		}
		s := &seedflow{pass: pass, sources: sources, roots: roots}
		// Sink facts propagate over the call graph to a fixpoint, so a
		// wrapper chain of any depth (f wraps g wraps h wraps NewSource)
		// is settled regardless of declaration order — the fixed
		// two-sweep version missed depth-3 chains. Cross-package chains
		// settle through the shared fact store (dependencies are
		// analyzed first).
		if cfg.NoCallGraph {
			s.exportSinks()
			s.exportSinks()
		} else {
			for s.exportSinks() {
			}
		}
		s.check()
		return nil
	}
	return a
}

type seedflow struct {
	pass    *Pass
	sources map[string]bool
	roots   pkgSet // configured constructors, by qualified name
}

// isConstructor reports whether call invokes math/rand's NewSource or a
// configured constructor, both of which take the seed first.
func (s *seedflow) isConstructor(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := s.pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return detRandPkgs[obj.Pkg().Path()] && obj.Name() == "NewSource" || s.roots[objKey(obj)]
}

// callSinkIndex returns the checked-argument index if call targets a
// seed sink (a constructor, or a function carrying the fact).
func (s *seedflow) callSinkIndex(call *ast.CallExpr) (int, bool) {
	if s.isConstructor(call) {
		return 0, true
	}
	if obj := calleeObj(s.pass.Info, call); obj != nil {
		if f, ok := s.pass.ImportFact(obj); ok {
			return f.(seedSinkFact).Index, true
		}
	}
	return 0, false
}

// exportSinks marks package functions whose parameter reaches a seed
// sink argument position, reporting whether any new fact was exported
// (the caller loops to a fixpoint).
func (s *seedflow) exportSinks() bool {
	changed := false
	for _, file := range s.pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fobj, ok := s.pass.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			params := paramObjs(s.pass.Info, fn)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				idx, sink := s.callSinkIndex(call)
				if !sink || idx >= len(call.Args) {
					return true
				}
				id, ok := call.Args[idx].(*ast.Ident)
				if !ok {
					return true
				}
				for i, p := range params {
					if s.pass.Info.Uses[id] == p {
						if _, had := s.pass.ImportFact(fobj); !had {
							s.pass.ExportFact(fobj, seedSinkFact{Index: i})
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	return changed
}

// check vets the seed argument of every sink call in the package.
func (s *seedflow) check() {
	for _, file := range s.pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fobj, _ := s.pass.Info.Defs[fn.Name].(*types.Func)
			params := paramObjs(s.pass.Info, fn)
			_, enclosingIsSink := func() (any, bool) {
				if fobj == nil {
					return nil, false
				}
				return s.pass.ImportFact(fobj)
			}()
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				idx, sink := s.callSinkIndex(call)
				if !sink || idx >= len(call.Args) {
					return true
				}
				arg := call.Args[idx]
				// A sink function passing its own checked-at-call-site
				// parameter along is the approved plumbing pattern.
				if enclosingIsSink {
					if id, ok := arg.(*ast.Ident); ok {
						for _, p := range params {
							if s.pass.Info.Uses[id] == p {
								return true
							}
						}
					}
				}
				if ok, why := s.seedOK(arg); !ok {
					s.pass.Reportf(arg.Pos(),
						"seed for %s is %s; derive it from core.CampaignSeed (or a Seed-carrying config field)",
						describeSink(call), why)
				}
				return true
			})
		}
	}
}

// seedOK classifies a seed expression. The rules are syntactic but
// deliberate: seed identity must be legible at the call site.
func (s *seedflow) seedOK(e ast.Expr) (bool, string) {
	switch e := e.(type) {
	case *ast.BasicLit:
		return false, "a literal"
	case *ast.ParenExpr:
		return s.seedOK(e.X)
	case *ast.UnaryExpr:
		return s.seedOK(e.X)
	case *ast.BinaryExpr:
		if okX, _ := s.seedOK(e.X); okX {
			return true, ""
		}
		return s.seedOK(e.Y)
	case *ast.Ident:
		if seedishName(e.Name) {
			return true, ""
		}
		return false, "an identifier whose derivation from a seed is not apparent"
	case *ast.SelectorExpr:
		if seedishName(e.Sel.Name) {
			return true, ""
		}
		return false, "a field whose derivation from a seed is not apparent"
	case *ast.CallExpr:
		// Conversions (int64(x)) are transparent.
		if tv, ok := s.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return s.seedOK(e.Args[0])
		}
		obj := calleeObj(s.pass.Info, e)
		if obj != nil {
			if obj.Pkg() != nil && obj.Pkg().Path() == "time" {
				return false, "a wall-clock value"
			}
			if s.sources[objKey(obj)] || seedishName(obj.Name()) {
				return true, ""
			}
		}
		return false, "a call not known to derive a seed"
	default:
		return false, "an expression whose derivation from a seed is not apparent"
	}
}

// seedishName reports whether a name self-documents as a seed.
func seedishName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// describeSink renders a sink call for diagnostics.
func describeSink(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	default:
		return "seed sink"
	}
}

// calleeObj resolves the called function's object, if statically known.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// paramObjs lists a function's parameter objects in declared order.
func paramObjs(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}
