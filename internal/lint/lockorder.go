// lockorder: consistent pairwise mutex acquisition order, interprocedural.
// If one code path locks A then B while another locks B then A — directly
// or by calling a helper that takes the second lock — the two paths can
// deadlock under load. The fleet daemon, server cache and tracer all
// nest locks (Manager.runMu → Manager.mu → Store.mu → Tracer.mu); this
// analyzer turns that nesting into an enforced partial order.
//
// Locks are named structurally ("pkg.Type.field", "pkg.var"), so every
// instance of a type shares a key — the standard approximation. The
// held-set replay is linear over each function body; goroutine bodies
// are separate lock contexts and are not scanned (a spawned worker does
// not inherit its parent's held set), and deferred unlocks hold to
// function end.

package lint

// NewLockorder builds the lockorder analyzer.
func NewLockorder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
	}
	a.Run = func(pass *Pass) error {
		g := pass.Graph()
		pkg := packageOf(pass)
		for i := range g.lockEdges {
			e := &g.lockEdges[i]
			if e.fn.pkg != pkg {
				continue
			}
			rev, ok := g.edgeIndex[[2]string{e.to, e.from}]
			if !ok {
				continue
			}
			how := ""
			if e.callee != nil {
				how = " via " + displayName(e.callee.fn)
			}
			pass.Reportf(e.pos,
				"%s acquires %s while holding %s%s, but %s acquires them in the opposite order (%s): potential deadlock — pick one order",
				displayName(e.fn.fn), e.to, e.from, how,
				displayName(rev.fn.fn), pass.Fset.Position(rev.pos))
		}
		return nil
	}
	return a
}
