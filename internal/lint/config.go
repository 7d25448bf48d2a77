// Suite configuration: which packages the determinism rules govern and
// which uses are allowlisted. The defaults encode xvolt's invariants;
// fixture tests construct configs pointing at testdata packages.

package lint

// Config parameterizes the project-specific analyzers.
type Config struct {
	// DeterministicPkgs are import paths whose outputs must be pure
	// functions of (Config, CampaignSeed): no wall clock, no global
	// rand. The campaign engine's sequential ≡ parallel guarantee rests
	// on these.
	DeterministicPkgs []string
	// DetrandAllow maps a package path to qualified symbols ("time.Now")
	// it may use even though it is deterministic-scoped. The single
	// entry in the default config is obs span timing, which routes
	// through the injectable `now` hook.
	DetrandAllow map[string][]string
	// SeedflowPkgs are packages in which every seed passed to
	// rand.NewSource or a SeedSinks constructor must trace back to a seed
	// source.
	SeedflowPkgs []string
	// SeedSources are qualified function names ("pkgpath.Func") whose
	// results count as derived campaign seeds.
	SeedSources []string
	// SeedSinks are qualified function names ("pkgpath.Func") whose first
	// argument is a seed: stream constructors vetted like rand.NewSource.
	SeedSinks []string
	// DetflowEntries are deterministic entry points, named by
	// (*types.Func).FullName() — e.g.
	// "(*xvolt/internal/core.LadderRunner).Execute". Everything statically
	// reachable from one must stay free of wall clocks and global rand.
	DetflowEntries []string
	// DetflowAllow are FullName()s whose subtrees detflow exempts — the
	// audited escape hatches beyond the (already invisible) injectable
	// hook variables.
	DetflowAllow []string
	// HotpathRequired are FullName()s that must carry a //xvolt:hotpath
	// annotation, so deleting the comment cannot silently drop a hot path
	// out of hotalloc enforcement.
	HotpathRequired []string
	// NoCallGraph disables the interprocedural layer, reverting detrand,
	// seedflow and maporder to their intraprocedural behavior. It exists
	// for the tests that prove what the old analyzers miss; production
	// configs leave it false.
	NoCallGraph bool
}

// DefaultConfig returns the xvolt invariants.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"xvolt/internal/core",
			"xvolt/internal/silicon",
			"xvolt/internal/workload",
			"xvolt/internal/experiments",
			"xvolt/internal/predict",
			"xvolt/internal/regress",
			"xvolt/internal/counters",
			"xvolt/internal/energy",
			"xvolt/internal/sched",
			"xvolt/internal/fleet",
			// xgene hosts the batch engine's sampling kernel (SampleCell)
			// and machine pool — the exact-draw-order contract the batch ≡
			// sequential equivalence rests on lives here.
			"xvolt/internal/xgene",
			// randsrc builds every campaign, die and board stream; its
			// draws must stay exactly math/rand's.
			"xvolt/internal/randsrc",
			// the event store and the aggregation tier are replay/ingest
			// state machines — their outputs must be pure functions of the
			// journaled operations and pushed requests.
			"xvolt/internal/eventstore",
			"xvolt/internal/hub",
			"xvolt/client/v1",
			// obs, trace and loadgen are scoped so their timing stays
			// visible to the rule …
			"xvolt/internal/obs",
			"xvolt/internal/trace",
			"xvolt/internal/loadgen",
		},
		// … and exempted only through this allowlist: the one permitted
		// wall-clock reference per package is the default of its
		// injectable `now`/`tnow` hook. Anything else in those packages
		// (or a second time.Now creeping in elsewhere) still fails the
		// build.
		DetrandAllow: map[string][]string{
			"xvolt/internal/obs":     {"time.Now"},
			"xvolt/internal/trace":   {"time.Now"},
			"xvolt/internal/loadgen": {"time.Now"},
			// the client's one wall-clock touch is the default backoff
			// timer behind the injectable WithSleep hook.
			"xvolt/client/v1": {"time.NewTimer"},
		},
		SeedflowPkgs: []string{
			"xvolt/internal/core",
			"xvolt/internal/experiments",
			"xvolt/internal/predict",
			"xvolt/internal/regress",
			"xvolt/internal/fleet",
			"xvolt/internal/loadgen",
			"xvolt/internal/xgene",
			"xvolt/internal/eventstore",
			"xvolt/internal/hub",
			"xvolt/client/v1",
		},
		SeedSources: []string{
			"xvolt/internal/core.CampaignSeed",
			"xvolt/internal/core.splitmix64",
			"xvolt/internal/regress.FoldSeed",
			"xvolt/internal/regress.splitmix64",
		},
		// Every production stream is built by randsrc.New, so it is the
		// sink seedflow vets; rand.NewSource stays one by default.
		SeedSinks: []string{"xvolt/internal/randsrc.New"},
		// The whole-program determinism contract: campaign results and
		// fleet event state are pure functions of their configs and seeds.
		// Wall-clock use inside these trees must route through injectable
		// hooks (`var now = …`), which static resolution cannot see — the
		// approved seam.
		DetflowEntries: []string{
			"(*xvolt/internal/core.LadderRunner).Execute",
			"(*xvolt/internal/core.LadderRunner).ExecuteResumable",
			"(*xvolt/internal/core.Framework).Execute",
			"(*xvolt/internal/fleet.Manager).Run",
			"(*xvolt/internal/fleet.Manager).BoardsJSON",
			"(*xvolt/internal/fleet.Manager).BoardsDeltaJSON",
			"(*xvolt/internal/fleet.Store).Append",
			"(*xvolt/internal/eventstore.Memory).Append",
			"(*xvolt/internal/eventstore.Log).Append",
			"(*xvolt/internal/hub.Hub).Ingest",
		},
		DetflowAllow: nil,
		// The benchgate-protected hot paths; hotalloc enforces the
		// annotation is present and the body stays allocation-disciplined.
		HotpathRequired: []string{
			"(*xvolt/internal/core.LadderRunner).runLadder",
			"(*xvolt/internal/workload.Bitflip).Reset",
			"(*xvolt/internal/workload.Bitflip).foldRecord",
			"(*xvolt/internal/workload.Replay).Score",
			"xvolt/internal/xgene.SampleCell",
			"(*xvolt/internal/fleet.board).poll",
			"(*xvolt/internal/fleet.snapshotEncoder).encode",
			"xvolt/api/v1.AppendBoardStatus",
			"xvolt/api/v1.appendBoard",
			"(*xvolt/api/v1.decoder).boards",
			"xvolt/api/v1.array",
			"(*xvolt/api/v1.decoder).ingestDoc",
			"(*xvolt/internal/eventstore.ring).recordsSince",
			"(*xvolt/internal/obs.HDR).Observe",
			"(*xvolt/internal/obs.AlertEngine).readLocked",
			"(xvolt/internal/obs.sampleRef).read",
			"(*xvolt/internal/eventstore.Log).Append",
		},
	}
}

// Suite builds the full analyzer suite for a config.
func Suite(cfg Config) []*Analyzer {
	return []*Analyzer{
		NewDetrand(cfg),
		NewSeedflow(cfg),
		NewMaporder(cfg),
		NewClonecheck(),
		NewErrclose(),
		NewDetflow(cfg),
		NewLockorder(),
		NewGoroleak(),
		NewHotalloc(cfg),
		NewUnusedexport(),
	}
}

// pkgSet answers membership for a path list.
type pkgSet map[string]bool

func newPkgSet(paths []string) pkgSet {
	s := pkgSet{}
	for _, p := range paths {
		s[p] = true
	}
	return s
}
