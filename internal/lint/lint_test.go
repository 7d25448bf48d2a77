package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden expect.txt files")

// The shared load: the whole module plus the std packages fixtures
// import, type-checked once per test binary. Doubles as a loader test —
// it must resolve every real package from source and stdlib export data.
var (
	progOnce sync.Once
	progVal  *Program
	progErr  error
	fixtures = map[string]*Package{}
	fixMu    sync.Mutex
)

func sharedProg(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		progVal, progErr = Load("../..", "./...",
			"bufio", "compress/gzip", "context", "encoding/csv",
			"math/rand", "time", "os", "strings", "sort", "fmt",
			"io", "sync")
	})
	if progErr != nil {
		t.Fatalf("loading module: %v", progErr)
	}
	return progVal
}

// fixture loads one testdata package (once) into the shared program
// under import path "fixture/<name>".
func fixture(t *testing.T, name string) *Package {
	t.Helper()
	prog := sharedProg(t)
	fixMu.Lock()
	defer fixMu.Unlock()
	path := "fixture/" + name
	if p, ok := fixtures[path]; ok {
		return p
	}
	dir := filepath.Join("testdata", "src", name)
	p, err := prog.LoadExtra(path, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	fixtures[path] = p
	return p
}

// runOn runs analyzers over the shared program and keeps only findings
// located in the given fixture directory.
func runOn(t *testing.T, dir string, analyzers ...*Analyzer) *Result {
	t.Helper()
	res, err := Run(sharedProg(t), analyzers)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(fs []Finding) []Finding {
		var out []Finding
		for _, f := range fs {
			if filepath.Dir(f.Pos.Filename) == dir {
				out = append(out, f)
			}
		}
		return out
	}
	return &Result{
		Findings:      filter(res.Findings),
		Suppressed:    filter(res.Suppressed),
		UnusedPragmas: filter(res.UnusedPragmas),
	}
}

// render formats findings the way goldens store them: basename, line,
// analyzer, message.
func render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
	}
	return b.String()
}

// checkGolden compares findings against testdata/src/<name>/expect.txt.
func checkGolden(t *testing.T, name string, fs []Finding) {
	t.Helper()
	got := render(fs)
	goldenPath := filepath.Join("testdata", "src", name, "expect.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestDetrandFixture(t *testing.T) {
	fixture(t, "detrand")
	cfg := Config{
		DeterministicPkgs: []string{"fixture/detrand"},
		DetrandAllow:      map[string][]string{"fixture/detrand": {"time.Until"}},
	}
	res := runOn(t, filepath.Join("testdata", "src", "detrand"), NewDetrand(cfg))
	checkGolden(t, "detrand", res.Findings)
	if len(res.Findings) == 0 {
		t.Fatal("detrand found nothing: fixture has seeded violations")
	}
	for _, f := range res.Findings {
		if strings.HasSuffix(f.Pos.Filename, "_test.go") {
			t.Errorf("detrand flagged a test file: %s", f)
		}
		if strings.Contains(f.Message, "time.Until") {
			t.Errorf("detrand flagged the allowlisted symbol: %s", f)
		}
	}
}

func TestSeedflowFixture(t *testing.T) {
	// Dependency first: its seed-sink facts must be exported before the
	// dependent fixture is analyzed.
	fixture(t, "seedflowdep")
	fixture(t, "seedflow")
	cfg := Config{
		SeedflowPkgs: []string{"fixture/seedflow", "fixture/seedflowdep"},
		SeedSinks:    []string{"fixture/seedflowdep.NewStream"},
	}
	res := runOn(t, filepath.Join("testdata", "src", "seedflow"), NewSeedflow(cfg))
	checkGolden(t, "seedflow", res.Findings)
	var crossPkg, configured bool
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "seedflowdep.NewRig") {
			crossPkg = true
		}
		if strings.Contains(f.Message, "seedflowdep.NewStream") {
			configured = true
		}
	}
	if !crossPkg {
		t.Error("seedflow missed the literal flowing through the cross-package sink fact")
	}
	if !configured {
		t.Error("seedflow missed the literal passed to a configured SeedSinks constructor")
	}
}

func TestMaporderFixture(t *testing.T) {
	fixture(t, "maporder")
	res := runOn(t, filepath.Join("testdata", "src", "maporder"), NewMaporder(Config{}))
	checkGolden(t, "maporder", res.Findings)
}

func TestClonecheckFixture(t *testing.T) {
	fixture(t, "clonecheck")
	res := runOn(t, filepath.Join("testdata", "src", "clonecheck"), NewClonecheck())
	checkGolden(t, "clonecheck", res.Findings)
}

func TestErrcloseFixture(t *testing.T) {
	fixture(t, "errclose")
	res := runOn(t, filepath.Join("testdata", "src", "errclose"), NewErrclose())
	checkGolden(t, "errclose", res.Findings)
}

func TestPragmaMachinery(t *testing.T) {
	fixture(t, "pragma")
	res := runOn(t, filepath.Join("testdata", "src", "pragma"), NewErrclose())

	if n := len(res.Suppressed); n != 2 {
		t.Fatalf("suppressed = %d findings, want 2 (line-above and same-line pragmas):\n%s",
			n, render(res.Suppressed))
	}
	for _, f := range res.Suppressed {
		if f.Reason == "" {
			t.Errorf("suppressed finding lost its pragma reason: %s", f)
		}
	}

	var sawMalformed, sawUncovered bool
	for _, f := range res.Findings {
		if f.Analyzer == "pragma" && strings.Contains(f.Message, "malformed") {
			sawMalformed = true
		}
		if f.Analyzer == "errclose" {
			sawUncovered = true
		}
	}
	if !sawMalformed {
		t.Error("reasonless pragma was not reported as malformed")
	}
	if !sawUncovered {
		t.Error("the finding under the malformed pragma was wrongly suppressed")
	}

	if n := len(res.UnusedPragmas); n != 1 {
		t.Errorf("unused pragmas = %d, want 1 (the stale maporder ignore):\n%s",
			n, render(res.UnusedPragmas))
	}
}

// TestInterprocFixture covers the cross-package laundering the
// call-graph layer exists to catch: wall clocks, global rand and
// ordered writes all hidden behind helper calls in another package.
func TestInterprocFixture(t *testing.T) {
	fixture(t, "interprocdep")
	fixture(t, "interproc")
	cfg := Config{DeterministicPkgs: []string{"fixture/interproc"}}
	res := runOn(t, filepath.Join("testdata", "src", "interproc"),
		NewDetrand(cfg), NewMaporder(cfg))
	checkGolden(t, "interproc", res.Findings)

	wants := map[string]string{
		"laundered wall clock":  "interprocdep.JitterDeep → interprocdep.Jitter → time.Now",
		"laundered global rand": "interprocdep.Draw → math/rand.Intn",
		"stdout write":          "interprocdep.LogRow → fmt.Println",
		"conduit write":         "interprocdep.EmitRow → fmt.Fprintln",
	}
	for what, chain := range wants {
		found := false
		for _, f := range res.Findings {
			if strings.Contains(f.Message, chain) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %s finding with witness chain %q:\n%s", what, chain, render(res.Findings))
		}
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "Render") {
			t.Errorf("self-contained renderer wrongly flagged: %s", f)
		}
	}
}

// TestInterprocOldAnalyzersProvablyMiss is the proof the tentpole
// demands: the same fixture under NoCallGraph (the old intraprocedural
// behavior) yields zero findings.
func TestInterprocOldAnalyzersProvablyMiss(t *testing.T) {
	fixture(t, "interprocdep")
	fixture(t, "interproc")
	cfg := Config{DeterministicPkgs: []string{"fixture/interproc"}, NoCallGraph: true}
	res := runOn(t, filepath.Join("testdata", "src", "interproc"),
		NewDetrand(cfg), NewMaporder(cfg))
	if len(res.Findings) != 0 {
		t.Fatalf("intraprocedural analyzers unexpectedly caught the laundering:\n%s", render(res.Findings))
	}
}

// TestSeedflowTwoSweepProvablyMisses shows the fixpoint matters: the
// depth-3 wrapper chain in chain.go (declared outermost-first) needs
// three export sweeps to settle, so the old fixed two-sweep misses the
// literal passed to w3. Fresh programs per mode keep the fact store
// isolated.
func TestSeedflowTwoSweepProvablyMisses(t *testing.T) {
	load := func(noCG bool) *Result {
		prog, err := Load("../..", "math/rand", "time")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"seedflowdep", "seedflow"} {
			if _, err := prog.LoadExtra("fixture/"+name, filepath.Join("testdata", "src", name)); err != nil {
				t.Fatalf("loading fixture %s: %v", name, err)
			}
		}
		cfg := Config{
			SeedflowPkgs: []string{"fixture/seedflow", "fixture/seedflowdep"},
			NoCallGraph:  noCG,
		}
		res, err := Run(prog, []*Analyzer{NewSeedflow(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hasChain := func(res *Result) bool {
		for _, f := range res.Findings {
			if filepath.Base(f.Pos.Filename) == "chain.go" &&
				strings.Contains(f.Message, "seed for w3 is a literal") {
				return true
			}
		}
		return false
	}
	if hasChain(load(true)) {
		t.Error("two-sweep export unexpectedly settled the depth-3 chain")
	}
	if !hasChain(load(false)) {
		t.Error("fixpoint export missed the literal behind the depth-3 chain")
	}
}

func TestDetflowFixture(t *testing.T) {
	fixture(t, "detflow")
	cfg := Config{
		DetflowEntries: []string{
			"fixture/detflow.Entry",
			"fixture/detflow.EntryRand",
			"fixture/detflow.EntryHook",
			"fixture/detflow.EntryAllowed",
		},
		DetflowAllow: []string{"fixture/detflow.audited"},
	}
	res := runOn(t, filepath.Join("testdata", "src", "detflow"), NewDetflow(cfg))
	checkGolden(t, "detflow", res.Findings)
	if len(res.Findings) != 2 {
		t.Errorf("want 2 findings (Entry, EntryRand), got:\n%s", render(res.Findings))
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "EntryHook") || strings.Contains(f.Message, "EntryAllowed") {
			t.Errorf("detflow pierced an audited seam: %s", f)
		}
	}
}

func TestLockorderFixture(t *testing.T) {
	fixture(t, "lockorder")
	res := runOn(t, filepath.Join("testdata", "src", "lockorder"), NewLockorder())
	checkGolden(t, "lockorder", res.Findings)
	var interproc bool
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "via lockorder.lockA") {
			interproc = true
		}
	}
	if !interproc {
		t.Errorf("missed the inversion through the helper:\n%s", render(res.Findings))
	}
}

func TestGoroleakFixture(t *testing.T) {
	fixture(t, "goroleak")
	res := runOn(t, filepath.Join("testdata", "src", "goroleak"), NewGoroleak())
	checkGolden(t, "goroleak", res.Findings)
	if len(res.Findings) != 2 {
		t.Errorf("want 2 findings (leak, leakCall), got:\n%s", render(res.Findings))
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "joined") {
			t.Errorf("joined goroutine wrongly flagged: %s", f)
		}
	}
}

func TestHotallocFixture(t *testing.T) {
	fixture(t, "hotalloc")
	cfg := Config{HotpathRequired: []string{"fixture/hotalloc.MustHot"}}
	res := runOn(t, filepath.Join("testdata", "src", "hotalloc"), NewHotalloc(cfg))
	checkGolden(t, "hotalloc", res.Findings)
	mapBuilds := 0
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "hotalloc.cool") || strings.Contains(f.Message, "hotalloc.free") {
			t.Errorf("clean or unannotated function wrongly flagged: %s", f)
		}
		if strings.Contains(f.Message, "builds a map") {
			mapBuilds++
		}
	}
	if mapBuilds != 2 {
		t.Errorf("want the map-scheduled newBitflip and the map literal flagged, got %d map findings:\n%s", mapBuilds, render(res.Findings))
	}
}

// TestUnusedexportFixture: declarations with no non-test reference are
// flagged — unused, test-only, self-recursive, a method that only shares
// an interface method's name — and so are untagged fields no non-test
// code reads: written by `=`, a tuple `=`, a composite-literal key or
// an unkeyed literal, exported or not, and an enum whose only non-test
// references are its own String method and constants, with all three.
// Uses from another package, dynamic dispatch, String/MarshalJSON on a
// type used elsewhere, tagged fields, and fields read by `op=`, `++`,
// `&`, a value use, a selector through them, `==` or a map key keep
// theirs, and a pragma keeps one on purpose.
func TestUnusedexportFixture(t *testing.T) {
	fixture(t, "internal/unusedexport")
	fixture(t, "unusedexportuse")
	res := runOn(t, filepath.Join("testdata", "src", "internal", "unusedexport"), NewUnusedexport())
	checkGolden(t, filepath.Join("internal", "unusedexport"), res.Findings)
	for _, name := range []string{"UnusedExported", "unusedHelper", "OnlyTests", "Recurse", "Config.Unread", "Tile.Area",
		"Counters.Assigned", "Counters.Tuple", "Counters.Keyed", "Inner.N", "Point.Y", "state.dead"} {
		found := false
		for _, f := range res.Findings {
			found = found || f.Message == unusedMessage(strings.Fields(f.Message)[0], name)
		}
		if !found {
			t.Errorf("%s not flagged:\n%s", name, render(res.Findings))
		}
	}
	for _, m := range []struct{ kind, name string }{{"type", "Action"}, {"const", "Retry"}, {"const", "Abort"}, {"method", "Action.String"}} {
		found := false
		for _, f := range res.Findings {
			found = found || f.Message == deadGroupMessage(m.kind, m.name, "Action")
		}
		if !found {
			t.Errorf("%s %s not flagged with its group:\n%s", m.kind, m.name, render(res.Findings))
		}
	}
	if len(res.Findings) != 16 {
		t.Errorf("want exactly the 16 flagged cases, got:\n%s", render(res.Findings))
	}
	if len(res.Suppressed) != 1 || !strings.Contains(res.Suppressed[0].Message, "func Kept ") {
		t.Errorf("want the pragma-kept Kept suppressed, got:\n%s", render(res.Suppressed))
	}
}

// TestRepoClean is the invariant the suite exists to hold: the real
// tree (fixtures excluded) has zero findings, zero stale pragmas, and
// only the suppressions audit.go lists, under the default config.
func TestRepoClean(t *testing.T) {
	res, err := Run(sharedProg(t), Suite(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	real := func(fs []Finding) []Finding {
		var out []Finding
		for _, f := range fs {
			if !strings.Contains(f.Pos.Filename, string(filepath.Separator)+"testdata"+string(filepath.Separator)) &&
				!strings.HasPrefix(f.Pos.Filename, "testdata"+string(filepath.Separator)) {
				out = append(out, f)
			}
		}
		return out
	}
	if fs := real(res.Findings); len(fs) > 0 {
		t.Errorf("repository is not lint-clean:\n%s", render(fs))
	}
	if fs := real(res.Unaudited); len(fs) > 0 {
		t.Errorf("unaudited pragma suppressions (list them in audit.go or fix them):\n%s", render(fs))
	}
	for _, f := range real(res.Suppressed) {
		if f.Reason == "" {
			t.Errorf("suppression without a justification: %s", f)
		}
	}
	if fs := real(res.UnusedPragmas); len(fs) > 0 {
		t.Errorf("repository carries stale pragmas:\n%s", render(fs))
	}
}

// TestDefaultConfigNamesResolve: detflow, hotalloc and seedflow skip a
// configured name they cannot find, so a renamed or deleted entry point
// or constructor would drop out of enforcement silently. Every name must
// resolve in the program.
func TestDefaultConfigNamesResolve(t *testing.T) {
	cfg := DefaultConfig()
	g := sharedProg(t).Graph()
	names := append(append(cfg.DetflowEntries, cfg.HotpathRequired...), cfg.SeedSinks...)
	for _, name := range names {
		if g.byName[name] == nil {
			t.Errorf("configured function %s does not exist in the program", name)
		}
	}
}
