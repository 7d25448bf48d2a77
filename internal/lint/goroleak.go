// goroleak: every goroutine needs an owner. A `go` statement with no
// visible join (sync.WaitGroup) or cancellation (context.Context) path
// is a goroutine whose lifetime nobody controls: worker pools that leak
// one goroutine per campaign eventually starve the scheduler, and a
// daemon goroutine that outlives its poll loop keeps mutating telemetry
// after shutdown. The rule is syntactic and local: somewhere in the
// spawned expression — arguments or closure body — a WaitGroup or
// Context value must appear. Intentional process-lifetime goroutines
// (a metrics listener that dies with the CLI) carry an audited
// `//xvolt:lint-ignore goroleak <reason>` pragma instead.

package lint

// NewGoroleak builds the goroleak analyzer.
func NewGoroleak() *Analyzer {
	a := &Analyzer{
		Name: "goroleak",
	}
	a.Run = func(pass *Pass) error {
		g := pass.Graph()
		pkg := packageOf(pass)
		for _, n := range g.nodes {
			if n.pkg != pkg {
				continue
			}
			for _, sp := range n.spawns {
				if sp.joined {
					continue
				}
				pass.Reportf(sp.pos,
					"%s launches a goroutine with no visible join or cancellation path (no sync.WaitGroup, no context.Context): bound its lifetime, or justify the leak with an audited pragma",
					displayName(n.fn))
			}
		}
		return nil
	}
	return a
}
