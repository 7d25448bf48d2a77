// The repository's audited suppression set. Every in-tree pragma must be
// listed here, so adding a suppression is a reviewed change to this
// file, not a silent escape: Run reports any other as an unaudited
// suppression, which fails xvolt-lint and TestRepoClean alike.

package lint

// auditedSuppressions keys by (package, analyzer), except unusedexport
// keeps, which key by the finding itself (suppressionKey): each kept
// declaration is its own reviewed line, and a second keep in a listed
// package is not covered.
var auditedSuppressions = map[string]bool{
	// Process-lifetime goroutines in the CLIs: the metrics listener and
	// the background campaign die with the process by design.
	"xvolt/cmd/xvolt-characterize/goroleak": true,
	"xvolt/cmd/xvolt-serve/goroleak":        true,
	// Frozen perfbench calls, sets or reads these until the next
	// benchmark change deletes them (ROADMAP item 1).
	"xvolt/internal/core/unusedexport: func FlushCampaignCache has no reference outside tests":   true,
	"xvolt/internal/fleet/unusedexport: field Config.Shards is never read outside tests":         true,
	"xvolt/internal/fleet/unusedexport: method (*Manager).Boards has no reference outside tests": true,
	"xvolt/internal/fleet/unusedexport: method (*Manager).Polled has no reference outside tests": true,
	"xvolt/internal/obs/unusedexport: method (*HDR).Count has no reference outside tests":        true,
	// Test oracles: FuzzAlertLookup's key lookup, the silicon ground
	// truth the xgene and sched tests classify against, and the
	// re-marshal count TestBoardsJSONDeltaReencodesOnlyDirty pins.
	"xvolt/internal/obs/unusedexport: method (*Registry).Snapshot has no reference outside tests":  true,
	"xvolt/internal/xgene/unusedexport: field RunResult.GroundTru is never read outside tests":     true,
	"xvolt/internal/fleet/unusedexport: field snapshotEncoder.encoded is never read outside tests": true,
	// The live-machine bisection the die bisection is pinned against;
	// frozen perfbench's bring-up probe calls it too.
	"xvolt/internal/core/unusedexport: method (*Framework).FindVminFast has no reference outside tests": true,
	// The DESIGN §4 robustness ablation; gated benchmarks call them, and
	// its tests check fold coverage with Evaluation.N.
	"xvolt/internal/regress/unusedexport: func CrossValidate has no reference outside tests":     true,
	"xvolt/internal/regress/unusedexport: func CrossValidateOpts has no reference outside tests": true,
	"xvolt/internal/regress/unusedexport: field Evaluation.N is never read outside tests":        true,
}

// suppressionKey is a suppressed finding's entry in auditedSuppressions.
func suppressionKey(f Finding) string {
	if f.Analyzer == "unusedexport" {
		return f.Pkg + "/unusedexport: " + f.Message
	}
	return f.Pkg + "/" + f.Analyzer
}

// unaudited reports the suppressed findings auditedSuppressions does not
// list, as findings of the pseudo-analyzer "pragma".
func unaudited(suppressed []Finding) []Finding {
	var out []Finding
	for _, f := range suppressed {
		if !auditedSuppressions[suppressionKey(f)] {
			out = append(out, Finding{
				Pos:      f.Pos,
				Pkg:      f.Pkg,
				Analyzer: "pragma",
				Message:  "suppression not in the audited set (internal/lint/audit.go): [" + f.Analyzer + "] " + f.Message,
			})
		}
	}
	return out
}
