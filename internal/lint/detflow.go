// detflow: whole-program determinism for the engines' entry points.
// Everything transitively reachable from a deterministic entry point —
// the campaign engines' Execute paths, the fleet manager's poll/commit
// path, the event-store append/replay path — must not reach a
// wall-clock read or a global math/rand draw, no matter how many
// helpers or packages the call is laundered through. The audited escape
// hatch is the injectable-hook pattern (`var now = time.Now`): calls
// through a hook variable are invisible to static resolution, which is
// exactly the seam the suite approves, plus an explicit allowlist of
// functions whose subtrees are exempt.
//
// detrand polices deterministic *packages* one call deep; detflow
// polices deterministic *call trees* to any depth, so a nondeterministic
// source three packages away from core still fails the build.

package lint

// NewDetflow builds the detflow analyzer for a config.
func NewDetflow(cfg Config) *Analyzer {
	entries := cfg.DetflowEntries
	allow := map[string]bool{}
	for _, name := range cfg.DetflowAllow {
		allow[name] = true
	}
	a := &Analyzer{
		Name: "detflow",
	}
	a.Run = func(pass *Pass) error {
		g := pass.Graph()
		for _, name := range entries {
			node, ok := g.byName[name]
			if !ok || node.pkg != packageOf(pass) {
				continue
			}
			if path, src, found := findNondet(g, node, allow, wallSources); found {
				pass.Reportf(node.decl.Name.Pos(),
					"deterministic entry point %s reaches %s (%s): results would depend on the wall clock; route it through an injectable hook or add the helper to the audited allowlist",
					displayName(node.fn), src.what, renderPath(path, src))
			}
			if path, src, found := findNondet(g, node, allow, randSources); found {
				pass.Reportf(node.decl.Name.Pos(),
					"deterministic entry point %s reaches global %s (%s): draws must come from a CampaignSeed-derived *rand.Rand",
					displayName(node.fn), src.what, renderPath(path, src))
			}
		}
		return nil
	}
	return a
}

// packageOf returns the pass's loaded package.
func packageOf(p *Pass) *Package { return p.prog.byPath[p.Pkg.Path()] }

// Source selectors for findNondet.
func wallSources(n *funcNode) []sourceUse { return n.wallClock }
func randSources(n *funcNode) []sourceUse { return n.globalRand }

// findNondet depth-first-searches the call tree under root (skipping
// allowlisted functions) for the first node carrying a direct
// nondeterminism source of the selected kind. Traversal follows source
// order, so the reported path is deterministic.
func findNondet(g *graph, root *funcNode, allow map[string]bool, sources func(*funcNode) []sourceUse) ([]*funcNode, sourceUse, bool) {
	visited := map[*funcNode]bool{}
	var path []*funcNode
	var dfs func(n *funcNode) (sourceUse, bool)
	dfs = func(n *funcNode) (sourceUse, bool) {
		if visited[n] || allow[n.fn.FullName()] {
			return sourceUse{}, false
		}
		visited[n] = true
		path = append(path, n)
		if uses := sources(n); len(uses) > 0 {
			return uses[0], true
		}
		for _, call := range n.calls {
			callee := g.byFunc[call.callee]
			if callee == nil {
				continue
			}
			if src, found := dfs(callee); found {
				return src, true
			}
		}
		path = path[:len(path)-1]
		return sourceUse{}, false
	}
	src, found := dfs(root)
	return path, src, found
}

// renderPath joins a call path for diagnostics, ending at the source.
func renderPath(path []*funcNode, src sourceUse) string {
	out := "via "
	for i, n := range path {
		if i > 0 {
			out += " → "
		}
		out += displayName(n.fn)
	}
	return out + " → " + src.what
}
