// maporder: ranging over a map while writing ordered output (CSV rows,
// Prometheus exposition, JSONL events, joined strings) emits rows in Go's
// randomized map order — the classic way golden checksums break only
// sometimes. The fix is always the same: collect the keys, sort them,
// range over the sorted slice.
//
// Beyond direct writes, the rule is interprocedural via the call-graph
// facts: a map-range body calling a helper whose call tree writes to
// stdout (any call), or writes through an escaping conduit when the call
// passes one, launders the randomized order just as surely — the helper
// emits one ordered record per iteration.
//
// Map order also escapes through a returned slice: a function that
// appends inside a map range onto a slice it returns, without sorting
// that slice, hands the randomized order to every caller that prints it.
// (predict.ModelBank.Cores did exactly this, and xvolt-govern's output
// flipped between runs.)

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// maporderWriteMethods are method names that commit bytes to an ordered
// destination when invoked inside a map range.
var maporderWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteAll": true, "Encode": true,
}

// maporderBenignWriters are receiver types whose writes are reordered or
// rebuilt later rather than streamed (none currently; kept as the
// extension point).
var maporderBenignWriters = map[string]bool{}

// NewMaporder builds the maporder analyzer for a config.
func NewMaporder(cfg Config) *Analyzer {
	a := &Analyzer{
		Name: "maporder",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkMaporder(pass, fn, !cfg.NoCallGraph)
			}
		}
		return nil
	}
	return a
}

func checkMaporder(pass *Pass, fn *ast.FuncDecl, interproc bool) {
	body := fn.Body
	// Flow-insensitive per-function context: which slices are sorted,
	// which are joined and which are returned anywhere in this function.
	sorted := map[types.Object]bool{}
	joined := map[types.Object]bool{}
	returned := returnedVars(pass.Info, fn)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(pass.Info, call)
		if obj == nil || obj.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		argObj := identObj(pass.Info, call.Args[0])
		if argObj == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
			if strings.HasPrefix(obj.Name(), "Sort") || obj.Name() == "Strings" ||
				obj.Name() == "Ints" || obj.Name() == "Float64s" ||
				obj.Name() == "Slice" || obj.Name() == "SliceStable" ||
				obj.Name() == "Stable" {
				sorted[argObj] = true
			}
		case "strings":
			if obj.Name() == "Join" {
				joined[argObj] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if why := orderedOutputIn(pass, rng.Body, sorted, joined, returned, interproc); why != "" {
			pass.Reportf(rng.Pos(),
				"iterates over a map in randomized order while %s; collect the keys, sort them, then range over the sorted slice",
				why)
		}
		return true
	})
}

// orderedOutputIn scans a map-range body for writes to ordered
// destinations; it returns a description of the first one, or "".
func orderedOutputIn(pass *Pass, body *ast.BlockStmt, sorted, joined, returned map[types.Object]bool, interproc bool) string {
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(s, ...) where s is never sorted but is later
		// strings.Join-ed (the join bakes map order into the output) or
		// returned (every caller inherits map order).
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if obj := identObj(pass.Info, call.Args[0]); obj != nil && !sorted[obj] {
				switch {
				case joined[obj]:
					why = "appending to a slice that is joined into ordered output"
				case returned[obj]:
					why = "appending to a slice the function returns unsorted"
				}
			}
			return true
		}
		obj := calleeObj(pass.Info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if obj.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(obj.Name(), "Fprint") || strings.HasPrefix(obj.Name(), "Print")) {
			why = "printing through fmt"
			return true
		}
		if fn, ok := obj.(*types.Func); ok && maporderWriteMethods[obj.Name()] {
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil && !maporderBenignWriters[recvTypeName(sig)] {
				why = "calling " + obj.Name() + " on an ordered writer"
				return true
			}
		}
		if interproc {
			why = launderedWrite(pass, call)
		}
		return true
	})
	return why
}

// returnedVars collects the variables fn hands back to its caller: its
// named results and the plain identifiers in its own return statements
// (not those of nested function literals, which return elsewhere).
func returnedVars(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if obj := identObj(info, r); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// launderedWrite reports an interprocedural ordered write behind a call
// inside a map-range body: the callee's tree writes to stdout, or writes
// through an escaping conduit and the call passes one. Helpers that only
// fill their own local buffers carry no fact and are not flagged — the
// caller may well sort what they return.
func launderedWrite(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFuncObj(pass.Info, call)
	if fn == nil {
		return ""
	}
	// Only functions parsed into the graph (module and fixture packages)
	// carry facts; stdlib callees resolve to nil here.
	callee := pass.Graph().byFunc[fn]
	if callee == nil {
		return ""
	}
	if w := callee.reachesStdout; w != nil {
		return "calling " + displayName(fn) + " which prints to stdout (" + chainFact(callee, factStdout) + ")"
	}
	if w := callee.reachesConduit; w != nil && callHasArgs(call) {
		return "calling " + displayName(fn) + " which writes ordered output through a passed-in writer (" + chainFact(callee, factConduit) + ")"
	}
	return ""
}

// callHasArgs reports whether a call passes anything a write could land
// in — a receiver or at least one argument.
func callHasArgs(call *ast.CallExpr) bool {
	if len(call.Args) > 0 {
		return true
	}
	_, isMethod := call.Fun.(*ast.SelectorExpr)
	return isMethod
}

// identObj resolves an expression to its object when it is a plain
// identifier (possibly parenthesized or address-taken).
func identObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.ParenExpr:
		return identObj(info, e.X)
	case *ast.UnaryExpr:
		return identObj(info, e.X)
	}
	return nil
}

// recvTypeName renders a method receiver's named type as "pkg.Type".
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
