// detrand: the deterministic packages must not read wall clocks or the
// global math/rand source. Campaign outcomes are a pure function of
// (Config, CampaignSeed); a single time.Now or rand.Intn in a hot path
// silently breaks the sequential ≡ parallel bit-identity guarantee and
// makes studies incomparable across machines — the property the
// framework paper calls out as the precondition for cross-machine
// comparisons.
//
// The rule is interprocedural: beyond direct uses, a deterministic
// package calling a helper — any package, any depth — whose call tree
// reaches a wall clock or a global rand draw is flagged at the call
// site, with the laundering chain rendered in the message. Helpers
// living inside deterministic scope are not re-flagged at their call
// sites: the direct check already reports them at the source.

package lint

import (
	"go/ast"
	"go/types"
)

// detTimeFuncs are the time package's nondeterminism entry points.
var detTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// detGlobalRandFuncs are math/rand package-level functions backed by the
// shared global source (constructors like New/NewSource are fine — they
// are how deterministic streams are built).
var detGlobalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// detRandPkgs are the rand package paths covered (v2's top-level
// functions are global-source-backed too).
var detRandPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// NewDetrand builds the detrand analyzer for a config.
func NewDetrand(cfg Config) *Analyzer {
	det := newPkgSet(cfg.DeterministicPkgs)
	allow := map[string]map[string]bool{}
	for pkg, syms := range cfg.DetrandAllow {
		allow[pkg] = map[string]bool{}
		for _, s := range syms {
			allow[pkg][s] = true
		}
	}
	a := &Analyzer{
		Name: "detrand",
	}
	a.Run = func(pass *Pass) error {
		if !det[pass.Pkg.Path()] {
			return nil
		}
		allowed := allow[pass.Pkg.Path()]
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					obj := pass.Info.Uses[n.Sel]
					if obj == nil || obj.Pkg() == nil {
						return true
					}
					qual := obj.Pkg().Path() + "." + obj.Name()
					switch {
					case obj.Pkg().Path() == "time" && detTimeFuncs[obj.Name()]:
						if allowed["time."+obj.Name()] {
							return true
						}
						pass.Reportf(n.Pos(),
							"%s in deterministic package %s: results must not depend on the wall clock (inject a clock or derive from the campaign seed)",
							qual, pass.Pkg.Path())
					case detRandPkgs[obj.Pkg().Path()] && detGlobalRandFuncs[obj.Name()]:
						// Only package-level functions draw from the global
						// source; methods on an explicit *rand.Rand are the
						// approved pattern.
						fn, isFunc := obj.(*types.Func)
						if !isFunc || fn.Type().(*types.Signature).Recv() != nil {
							return true
						}
						if allowed[qual] {
							return true
						}
						pass.Reportf(n.Pos(),
							"global %s in deterministic package %s: draw from a *rand.Rand seeded via core.CampaignSeed instead",
							qual, pass.Pkg.Path())
					}
				case *ast.CallExpr:
					// new(rand.Rand): a zero Rand is an unseeded stream —
					// never a deterministic one.
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
						if tv, ok := pass.Info.Types[n.Args[0]]; ok && tv.IsType() {
							if named, ok := tv.Type.(*types.Named); ok {
								o := named.Obj()
								if o.Pkg() != nil && detRandPkgs[o.Pkg().Path()] && o.Name() == "Rand" {
									pass.Reportf(n.Pos(),
										"new(rand.Rand) in deterministic package %s: construct with randsrc.New(seed) from a campaign-derived seed",
										pass.Pkg.Path())
								}
							}
						}
					}
				}
				return true
			})
		}
		if !cfg.NoCallGraph {
			detrandInterproc(pass, det, allowed)
		}
		return nil
	}
	return a
}

// detrandInterproc flags calls from this (deterministic) package into
// helpers outside deterministic scope whose call trees reach a
// nondeterminism source. In-scope callees are skipped — their direct
// uses are reported at the source by the intraprocedural check above.
func detrandInterproc(pass *Pass, det pkgSet, allowed map[string]bool) {
	g := pass.Graph()
	pkg := packageOf(pass)
	for _, n := range g.nodes {
		if n.pkg != pkg {
			continue
		}
		for _, call := range n.calls {
			callee := g.byFunc[call.callee]
			if callee == nil || callee.pkg == pkg || det[callee.pkg.Path] {
				continue
			}
			if w := callee.reachesWall; w != nil && !allowed[w.what] {
				pass.Reportf(call.pos,
					"%s launders a wall clock into deterministic package %s (%s): results must not depend on %s; inject a clock or derive from the campaign seed",
					displayName(callee.fn), pass.Pkg.Path(), chainFact(callee, factWall), w.what)
			}
			if w := callee.reachesRand; w != nil && !allowed[w.what] {
				pass.Reportf(call.pos,
					"%s launders the global rand source into deterministic package %s (%s): draw from a *rand.Rand seeded via core.CampaignSeed instead",
					displayName(callee.fn), pass.Pkg.Path(), chainFact(callee, factRand))
			}
		}
	}
}
