// hotalloc: the static half of the benchgate story. Functions annotated
// `//xvolt:hotpath` — the ladder sweep, the batch sampling kernel, the
// fleet poll, the HDR observe — earned their allocation profiles in
// BENCH_baseline.json; this analyzer keeps the cheap-to-reintroduce
// regressions out at compile time instead of waiting for the bench gate
// to catch them at CI time:
//
//   - no calls into fmt (every verb is an interface box + parse);
//   - no map construction, by make or by literal (an allocation per
//     call, and a hash per access where an array index would do);
//   - no map iteration (randomized order *and* hash-walk cost);
//   - no defer inside a loop (defers accumulate until function return);
//   - no growing a returned slice that was declared without capacity
//     (each growth is a realloc+copy on the hot path — preallocate or
//     take a caller-owned buffer).
//
// The config also names functions that MUST carry the annotation
// (HotpathRequired), so deleting a pragma-like comment cannot silently
// drop a hot path out of enforcement.

package lint

import (
	"go/ast"
	"go/types"
)

// NewHotalloc builds the hotalloc analyzer for a config.
func NewHotalloc(cfg Config) *Analyzer {
	required := map[string]bool{}
	for _, name := range cfg.HotpathRequired {
		required[name] = true
	}
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "enforce allocation discipline in //xvolt:hotpath functions",
	}
	a.Run = func(pass *Pass) error {
		g := pass.Graph()
		pkg := packageOf(pass)
		for _, n := range g.nodes {
			if n.pkg != pkg {
				continue
			}
			if required[n.fn.FullName()] && !n.hotpath {
				pass.Reportf(n.decl.Name.Pos(),
					"%s is a required hot path (config HotpathRequired) but carries no //xvolt:hotpath annotation",
					displayName(n.fn))
			}
			if !n.hotpath {
				continue
			}
			checkHotBody(pass, n)
		}
		return nil
	}
	return a
}

// checkHotBody applies the hot-path rules to one annotated function.
func checkHotBody(pass *Pass, n *funcNode) {
	name := displayName(n.fn)

	// Direct fmt calls, from the already-collected call sites.
	for _, call := range n.calls {
		if call.callee.Pkg() != nil && call.callee.Pkg().Path() == "fmt" {
			pass.Reportf(call.pos,
				"hot path %s calls fmt.%s: formatting boxes every operand; preformat off the hot path or use strconv",
				name, call.callee.Name())
		}
	}

	loopDepth := 0
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch stmt := node.(type) {
		case *ast.ForStmt:
			loopDepth++
			if stmt.Init != nil {
				ast.Inspect(stmt.Init, walk)
			}
			ast.Inspect(stmt.Body, walk)
			loopDepth--
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[stmt.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(stmt.Pos(),
						"hot path %s iterates a map: randomized order and hash-walk cost; keep hot state in slices",
						name)
				}
			}
			loopDepth++
			ast.Inspect(stmt.Body, walk)
			loopDepth--
			return false
		case *ast.CallExpr:
			if id, ok := stmt.Fun.(*ast.Ident); ok && id.Name == "make" && isBuiltin(pass, id) && isMapExpr(pass, stmt) {
				reportMapBuild(pass, stmt, name)
			}
		case *ast.CompositeLit:
			if isMapExpr(pass, stmt) {
				reportMapBuild(pass, stmt, name)
			}
		case *ast.DeferStmt:
			if loopDepth > 0 {
				pass.Reportf(stmt.Pos(),
					"hot path %s defers inside a loop: defers accumulate until return; hoist the defer or release explicitly",
					name)
			}
		}
		return true
	}
	ast.Inspect(n.decl.Body, walk)

	checkEscapingGrowth(pass, n, name)
}

// isBuiltin reports whether id resolves to a predeclared builtin.
func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// isMapExpr reports whether e has a map type.
func isMapExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func reportMapBuild(pass *Pass, at ast.Node, name string) {
	pass.Reportf(at.Pos(),
		"hot path %s builds a map: an allocation per call and a hash per access; keep hot state in arrays or slices",
		name)
}

// checkEscapingGrowth flags `x = append(x, …)` on a slice that (a) is
// declared in this function without capacity and (b) escapes through a
// return statement. Parameters and preallocated slices are the approved
// patterns (caller-owned arenas, make with capacity).
func checkEscapingGrowth(pass *Pass, n *funcNode, name string) {
	noCap := map[types.Object]bool{} // declared here, no capacity
	returned := map[types.Object]bool{}
	appendPos := map[types.Object][]ast.Expr{}

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true // multi-value form: a call owns the allocation
			}
			for i, lhs := range node.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id] // definitions only (:=)
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
					continue
				}
				if !hasCapacity(pass, node.Rhs[i]) {
					noCap[obj] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := node.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					obj := pass.Info.Defs[id]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						noCap[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if obj := identObj(pass.Info, res); obj != nil {
					returned[obj] = true
				}
			}
		case *ast.CallExpr:
			id, ok := node.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || len(node.Args) == 0 {
				return true
			}
			if obj := identObj(pass.Info, node.Args[0]); obj != nil {
				appendPos[obj] = append(appendPos[obj], node.Args[0])
			}
		}
		return true
	})

	for obj, sites := range appendPos {
		if !noCap[obj] || !returned[obj] {
			continue
		}
		// One finding per slice, at its first append, keeps goldens small.
		first := sites[0]
		for _, s := range sites[1:] {
			if s.Pos() < first.Pos() {
				first = s
			}
		}
		pass.Reportf(first.Pos(),
			"hot path %s grows returned slice %q declared without capacity: every growth reallocates; make it with capacity or take a caller-owned buffer",
			name, obj.Name())
	}
}

// hasCapacity reports whether a slice-producing expression carries a
// useful capacity: make with a cap (or non-zero length) argument, a
// composite literal with elements, or anything that is not a fresh
// empty slice (a call result, a slice expression — the callee owns the
// allocation decision).
func hasCapacity(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if ok && id.Name == "make" && pass.Info.Defs[id] == nil {
			if len(e.Args) >= 3 {
				return !isZeroLit(e.Args[2])
			}
			if len(e.Args) == 2 {
				return !isZeroLit(e.Args[1])
			}
			return false
		}
		return true // some other call produced it; not this function's growth
	case *ast.CompositeLit:
		return len(e.Elts) > 0
	}
	return true
}

// isZeroLit reports a literal 0.
func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "0"
}
