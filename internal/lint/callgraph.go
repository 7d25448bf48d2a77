// The interprocedural layer: a call graph over the shared type-checked
// load, with per-function atomic facts (calls a wall clock, draws from
// the global rand source, writes ordered output, spawns a goroutine,
// acquires locks) and transitive facts computed to a fixpoint. The
// project analyzers are re-based on this graph so nondeterminism
// laundered through a helper — in this package or across packages — is
// as visible as a direct call.
//
// Resolution is static: calls through interfaces, function values and
// injectable hooks (`var now = time.Now`) are not edges. That blindness
// is deliberate where the hooks are concerned — routing a clock through
// a seam the graph cannot see is exactly the audited pattern the suite
// approves — and documented unsoundness everywhere else.
//
// The graph is built once per Program and memoized; loading another
// fixture package (LoadExtra) invalidates the memo so tests see a graph
// covering every package loaded so far. Node, call-site and witness
// order all follow load order, so diagnostics are deterministic.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcNode is one declared function or method in the loaded universe.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// hotpath records a `//xvolt:hotpath` annotation on the declaration.
	hotpath bool

	// calls are the statically resolved call sites in the body, in
	// source order, including calls inside function literals. spawned
	// marks calls made from inside a `go func(){...}` literal: they
	// count for reachability (the spawned work still belongs to this
	// function's dynamic extent) but not for lock-acquisition
	// propagation (they run on another goroutine).
	calls []callSite

	// Direct atomic facts, in source order.
	wallClock  []sourceUse // time.Now / Since / tickers …
	globalRand []sourceUse // math/rand package-level draws
	// writeStdout: fmt.Print* — ordered output to a process-global
	// destination. writeConduit: fmt.Fprint* / Write-family methods
	// whose target escapes this frame (parameter, receiver field,
	// package-level); writes into function-local buffers are not facts —
	// a self-contained renderer does not launder map order.
	writeStdout  []sourceUse
	writeConduit []sourceUse
	spawns       []spawnSite // go statements
	lockOps      []lockOp    // mutex operations outside function literals

	// Transitive facts (fixpoint over the graph; nil/empty = unreached).
	// reachesStdout propagates through any call; reachesConduit only
	// through calls that pass an escaping value (the conduit the
	// callee's writes could land in).
	reachesWall    *witness
	reachesRand    *witness
	reachesStdout  *witness
	reachesConduit *witness
	acquires       map[string]*witness // lock key → how it is reached
	acquireOrder   []string            // deterministic iteration order for acquires
}

// callSite is one statically resolved call.
type callSite struct {
	pos     token.Pos
	callee  *types.Func
	spawned bool
	// conduit: the call passes at least one value that outlives the
	// caller's frame (receiver or argument rooted in a parameter, field
	// or package-level variable) — the channel through which a callee's
	// escaping writes become the caller's writes.
	conduit bool
}

// sourceUse is one direct use of a nondeterministic or ordered-output
// source.
type sourceUse struct {
	what string // e.g. "time.Now", "math/rand.Intn", "fmt.Fprintf"
}

// spawnSite is one `go` statement.
type spawnSite struct {
	pos token.Pos
	// joined reports a visible join or cancellation path: the spawned
	// expression references a sync.WaitGroup or a context.Context.
	joined bool
}

// lockOpKind distinguishes mutex operations.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opDeferUnlock
)

// lockOp is one mutex acquisition or release in a function body, in
// source order. Operations inside function literals are not collected:
// go-routine bodies hold a different lock context, and deferred
// closures run under an ambiguous one.
type lockOp struct {
	pos  token.Pos
	key  string // canonical lock identity, e.g. "xvolt/internal/fleet.Manager.mu"
	kind lockOpKind
	// callee is set instead of key for module calls made while scanning
	// (interprocedural acquisition edges).
	callee *types.Func
}

// witness explains how a transitive fact is reached in the owning
// function: either directly (via == nil, what names the source) or
// through a call to via.
type witness struct {
	via  *funcNode
	what string
}

// lockEdge records "to acquired while from held" at pos inside fn.
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       *funcNode
	callee   *funcNode // non-nil when the acquisition happens inside a callee
}

// graph is the whole-program call graph plus computed facts.
type graph struct {
	nodes  []*funcNode
	byFunc map[*types.Func]*funcNode
	byName map[string]*funcNode // (*types.Func).FullName() → node

	lockEdges []lockEdge
	edgeIndex map[[2]string]*lockEdge
}

// Graph returns the program's call graph, building it on first use and
// rebuilding when packages were added since (LoadExtra in tests).
func (prog *Program) Graph() *graph {
	if prog.graphVal == nil || prog.graphPkgs != len(prog.Packages) {
		prog.graphVal = buildGraph(prog)
		prog.graphPkgs = len(prog.Packages)
	}
	return prog.graphVal
}

// Graph exposes the shared call graph to an analyzer.
func (p *Pass) Graph() *graph { return p.prog.Graph() }

func buildGraph(prog *Program) *graph {
	g := &graph{
		byFunc: map[*types.Func]*funcNode{},
		byName: map[string]*funcNode{},
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: obj, decl: fn, pkg: pkg, hotpath: isHotpath(fn)}
				collectFacts(node, pkg.Info)
				collectLockOps(node, pkg.Info)
				g.nodes = append(g.nodes, node)
				g.byFunc[obj] = node
				g.byName[obj.FullName()] = node
			}
		}
	}
	g.propagate()
	g.buildLockEdges()
	return g
}

// isHotpath reports a `//xvolt:hotpath` annotation in the declaration's
// doc comment (trailing text after the marker is a free-form note).
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "xvolt:hotpath" || strings.HasPrefix(text, "xvolt:hotpath ") {
			return true
		}
	}
	return false
}

// collectFacts walks the whole body (function literals included) for
// call sites, nondeterminism sources, ordered writes and go statements.
func collectFacts(node *funcNode, info *types.Info) {
	goDepth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			node.spawns = append(node.spawns, spawnSite{
				pos:    n.Pos(),
				joined: spawnJoined(info, n.Call),
			})
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				goDepth++
				ast.Inspect(lit.Body, walk)
				goDepth--
				// Arguments to the literal evaluate on the spawning
				// goroutine; visit them in the current context.
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			// `go f(args)`: record the call as spawned, then fall through
			// so args are scanned normally.
			if callee := calleeFuncObj(info, n.Call); callee != nil {
				node.calls = append(node.calls, callSite{
					pos:     n.Call.Pos(),
					callee:  callee,
					spawned: true,
					conduit: callConduit(info, node.decl.Body, n.Call),
				})
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			callee := calleeFuncObj(info, n)
			if callee == nil {
				return true
			}
			pkgPath := ""
			if callee.Pkg() != nil {
				pkgPath = callee.Pkg().Path()
			}
			recv := callee.Type().(*types.Signature).Recv()
			switch {
			case pkgPath == "time" && recv == nil && detTimeFuncs[callee.Name()]:
				node.wallClock = append(node.wallClock, sourceUse{"time." + callee.Name()})
			case detRandPkgs[pkgPath] && recv == nil && detGlobalRandFuncs[callee.Name()]:
				node.globalRand = append(node.globalRand, sourceUse{pkgPath + "." + callee.Name()})
			case pkgPath == "fmt" && recv == nil && strings.HasPrefix(callee.Name(), "Print"):
				node.writeStdout = append(node.writeStdout, sourceUse{"fmt." + callee.Name()})
			case pkgPath == "fmt" && recv == nil && strings.HasPrefix(callee.Name(), "Fprint"):
				if len(n.Args) > 0 && escapingRoot(info, node.decl.Body, n.Args[0]) {
					node.writeConduit = append(node.writeConduit, sourceUse{"fmt." + callee.Name()})
				}
			case recv != nil && maporderWriteMethods[callee.Name()]:
				sig := callee.Type().(*types.Signature)
				if !maporderBenignWriters[recvTypeName(sig)] {
					if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel && escapingRoot(info, node.decl.Body, sel.X) {
						node.writeConduit = append(node.writeConduit, sourceUse{recvTypeName(sig) + "." + callee.Name()})
					}
				}
			}
			node.calls = append(node.calls, callSite{
				pos:     n.Pos(),
				callee:  callee,
				spawned: goDepth > 0,
				conduit: callConduit(info, node.decl.Body, n),
			})
			return true
		}
		return true
	}
	ast.Inspect(node.decl.Body, walk)
}

// escapingRoot reports whether an expression's root object outlives the
// enclosing function frame: a parameter, receiver, named result, struct
// field, or package-level variable (including qualified ones like
// os.Stdout). Locals declared inside body — a scratch strings.Builder,
// say — are this frame's own storage; writes into them are not escaping
// facts.
func escapingRoot(info *types.Info, body *ast.BlockStmt, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Qualified package-level var (os.Stdout) is escaping outright;
			// a field selector's fate follows its base (s.out → s).
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return true
				}
			}
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return false
			}
			if v.IsField() {
				return true
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return true
			}
			// Declared outside the body text range → parameter, receiver
			// or named result.
			return v.Pos() < body.Pos() || v.Pos() > body.End()
		default:
			return false
		}
	}
}

// callConduit reports whether a call passes any escaping value — the
// receiver or an argument a callee's escaping writes could land in.
func callConduit(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && escapingRoot(info, body, sel.X) {
		return true
	}
	for _, arg := range call.Args {
		if escapingRoot(info, body, arg) {
			return true
		}
	}
	return false
}

// spawnJoined reports whether a spawned call has a visible join or
// cancellation path: any referenced value of type context.Context or
// sync.WaitGroup (by value or pointer), anywhere in the expression —
// closure bodies included.
func spawnJoined(info *types.Info, call *ast.CallExpr) bool {
	joined := false
	ast.Inspect(call, func(n ast.Node) bool {
		if joined {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := info.Types[expr]
		if !ok {
			return true
		}
		if isJoinType(tv.Type) {
			joined = true
			return false
		}
		return true
	})
	return joined
}

// isJoinType matches context.Context and (*)sync.WaitGroup.
func isJoinType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "context.Context", "sync.WaitGroup":
		return true
	}
	return false
}

// collectLockOps walks the top-level body (function literals excluded —
// goroutine bodies hold a different lock context, deferred closures an
// ambiguous one) recording mutex operations and module calls in source
// order.
func collectLockOps(node *funcNode, info *types.Info) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if key, kind, ok := mutexOp(info, n.Call); ok && kind == opUnlock {
				node.lockOps = append(node.lockOps, lockOp{pos: n.Pos(), key: key, kind: opDeferUnlock})
			}
			// Deferred module calls run under an ambiguous held-set; skip.
			return false
		case *ast.CallExpr:
			if key, kind, ok := mutexOp(info, n); ok {
				node.lockOps = append(node.lockOps, lockOp{pos: n.Pos(), key: key, kind: kind})
				return true
			}
			if callee := calleeFuncObj(info, n); callee != nil {
				node.lockOps = append(node.lockOps, lockOp{pos: n.Pos(), callee: callee})
			}
			return true
		}
		return true
	}
	ast.Inspect(node.decl.Body, walk)
}

// mutexOp classifies a call as a sync.Mutex/RWMutex operation and
// derives the lock's canonical identity from the receiver expression.
// RLock/RUnlock fold onto the same key as Lock/Unlock: a read-order
// inversion still deadlocks once a writer queues between the readers.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, kind lockOpKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", 0, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	key = lockKey(info, sel.X)
	if key == "" {
		return "", 0, false
	}
	return key, kind, true
}

// lockKey names a mutex by its owner: "pkg.Type.field" for struct
// fields (every instance of the type shares the key — the usual
// approximation), "pkg.var" for package-level mutexes, and
// "pkg.func.var" for locals. Anything more dynamic (map elements,
// slice indexing) is unnamed and unchecked.
func lockKey(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// owner.field — key by the owner's named type.
		fieldObj := info.Uses[e.Sel]
		if fieldObj == nil {
			return ""
		}
		tv, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fieldObj.Name()
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + ".local." + obj.Name()
		}
		return ""
	case *ast.ParenExpr:
		return lockKey(info, e.X)
	case *ast.UnaryExpr:
		return lockKey(info, e.X)
	}
	return ""
}

// calleeFuncObj resolves a call's static callee to a *types.Func
// (package function or method on a concrete type). Interface methods,
// function values and conversions resolve to nil.
func calleeFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// Interface methods have no body anywhere; skip so witnesses always
	// point at real code.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			return nil
		}
	}
	return fn
}

// propagate computes the transitive facts to a fixpoint. Witnesses are
// first-win under a fixed node iteration order, so diagnostics are
// stable across runs.
func (g *graph) propagate() {
	for _, n := range g.nodes {
		if len(n.wallClock) > 0 {
			n.reachesWall = &witness{what: n.wallClock[0].what}
		}
		if len(n.globalRand) > 0 {
			n.reachesRand = &witness{what: n.globalRand[0].what}
		}
		if len(n.writeStdout) > 0 {
			n.reachesStdout = &witness{what: n.writeStdout[0].what}
		}
		if len(n.writeConduit) > 0 {
			n.reachesConduit = &witness{what: n.writeConduit[0].what}
		}
		n.acquires = map[string]*witness{}
		for _, op := range n.lockOps {
			if op.callee == nil && op.kind == opLock {
				if _, seen := n.acquires[op.key]; !seen {
					n.acquires[op.key] = &witness{what: op.key}
					n.acquireOrder = append(n.acquireOrder, op.key)
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for _, call := range n.calls {
				callee := g.byFunc[call.callee]
				if callee == nil {
					continue
				}
				if n.reachesWall == nil && callee.reachesWall != nil {
					n.reachesWall = &witness{via: callee, what: callee.reachesWall.what}
					changed = true
				}
				if n.reachesRand == nil && callee.reachesRand != nil {
					n.reachesRand = &witness{via: callee, what: callee.reachesRand.what}
					changed = true
				}
				if n.reachesStdout == nil && callee.reachesStdout != nil {
					n.reachesStdout = &witness{via: callee, what: callee.reachesStdout.what}
					changed = true
				}
				// Conduit writes only become this function's writes when
				// the call hands the callee somewhere escaping to write.
				if call.conduit && n.reachesConduit == nil && callee.reachesConduit != nil {
					n.reachesConduit = &witness{via: callee, what: callee.reachesConduit.what}
					changed = true
				}
				if !call.spawned {
					for _, key := range callee.acquireOrder {
						if _, seen := n.acquires[key]; !seen {
							n.acquires[key] = &witness{via: callee, what: key}
							n.acquireOrder = append(n.acquireOrder, key)
							changed = true
						}
					}
				}
			}
		}
	}
}

// buildLockEdges replays each function's lock-op sequence with a held
// set, recording "B acquired while A held" edges — directly or through
// a callee's transitive acquisitions. First edge per ordered pair wins.
func (g *graph) buildLockEdges() {
	g.edgeIndex = map[[2]string]*lockEdge{}
	add := func(e lockEdge) {
		if e.from == e.to {
			return
		}
		k := [2]string{e.from, e.to}
		if _, seen := g.edgeIndex[k]; seen {
			return
		}
		g.lockEdges = append(g.lockEdges, e)
		g.edgeIndex[k] = &g.lockEdges[len(g.lockEdges)-1]
	}
	for _, n := range g.nodes {
		var held []string
		for _, op := range n.lockOps {
			switch {
			case op.callee != nil:
				if len(held) == 0 {
					continue
				}
				callee := g.byFunc[op.callee]
				if callee == nil {
					continue
				}
				for _, from := range held {
					for _, to := range callee.acquireOrder {
						add(lockEdge{from: from, to: to, pos: op.pos, fn: n, callee: callee})
					}
				}
			case op.kind == opLock:
				for _, from := range held {
					add(lockEdge{from: from, to: op.key, pos: op.pos, fn: n})
				}
				held = append(held, op.key)
			case op.kind == opUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == op.key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				// opDeferUnlock keeps the lock held to function end.
			}
		}
	}
}

// chainFact renders the witness chain for one transitive fact kind,
// starting at n: "core.sweep → stats.jitter → time.Now". get selects
// which fact to follow (reachesWall, reachesRand, reachesStdout, …).
func chainFact(n *funcNode, get func(*funcNode) *witness) string {
	var b strings.Builder
	b.WriteString(displayName(n.fn))
	for w := get(n); w != nil; w = get(w.via) {
		b.WriteString(" → ")
		if w.via == nil {
			b.WriteString(w.what)
			break
		}
		b.WriteString(displayName(w.via.fn))
	}
	return b.String()
}

// Fact getters for chainFact.
func factWall(n *funcNode) *witness    { return n.reachesWall }
func factRand(n *funcNode) *witness    { return n.reachesRand }
func factStdout(n *funcNode) *witness  { return n.reachesStdout }
func factConduit(n *funcNode) *witness { return n.reachesConduit }

// displayName renders a function for diagnostics with its short package
// name: "core.(*LadderRunner).runLadder", "xgene.SampleCell".
func displayName(fn *types.Func) string {
	full := fn.FullName()
	if fn.Pkg() == nil {
		return full
	}
	return strings.ReplaceAll(full, fn.Pkg().Path(), fn.Pkg().Name())
}
