package core

import (
	"math/rand"
	"reflect"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func tttFramework() *Framework {
	return New(xgene.New(silicon.NewChip(silicon.TTT, 1)))
}

func specs(t *testing.T, ids ...string) []*workload.Spec {
	t.Helper()
	out := make([]*workload.Spec, len(ids))
	for i, id := range ids {
		s, err := workload.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig(specs(t, "bwaves/ref"), []int{0})
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no benchmarks", func(c *Config) { c.Benchmarks = nil }},
		{"no cores", func(c *Config) { c.Cores = nil }},
		{"bad core", func(c *Config) { c.Cores = []int{9} }},
		{"negative core", func(c *Config) { c.Cores = []int{-1} }},
		{"bad freq", func(c *Config) { c.Frequency = 1000 }},
		{"bad bg freq", func(c *Config) { c.BackgroundFrequency = 123 }},
		{"inverted sweep", func(c *Config) { c.StartVoltage, c.StopVoltage = 800, 900 }},
		{"off-grid start", func(c *Config) { c.StartVoltage = 977 }},
		{"zero runs", func(c *Config) { c.Runs = 0 }},
		{"below regulator", func(c *Config) { c.StopVoltage = 400; c.StartVoltage = 500 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestClassifyRecord(t *testing.T) {
	cases := []struct {
		rec  RunRecord
		want string
	}{
		{RunRecord{}, "NO"},
		{RunRecord{OutputMismatch: true}, "SDC"},
		{RunRecord{ExitCode: 1}, "AC"},
		{RunRecord{ExitCode: 1, OutputMismatch: true}, "AC"}, // no output → no SDC claim
		{RunRecord{DeltaCE: 3}, "CE"},
		{RunRecord{DeltaUE: 1}, "UE"},
		{RunRecord{OutputMismatch: true, DeltaCE: 2}, "SDC+CE"},
		{RunRecord{SystemCrashed: true}, "SC"},
		{RunRecord{SystemCrashed: true, DeltaCE: 4}, "CE+SC"},
	}
	for _, tc := range cases {
		if got := tc.rec.Classify().String(); got != tc.want {
			t.Errorf("Classify(%+v) = %q, want %q", tc.rec, got, tc.want)
		}
	}
}

// Full-stack campaign on one benchmark/core: the sweep must produce the
// three regions in order and land the safe Vmin on the calibrated value.
func TestCampaignBwavesCore4(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "bwaves/ref"), []int{4})
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d campaign results", len(results))
	}
	c := results[0]
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Chip != "TTT" || c.Benchmark != "bwaves" || c.Core != 4 || c.Frequency != 2400 {
		t.Errorf("campaign metadata wrong: %+v", c)
	}
	vmin, ok := c.SafeVmin()
	if !ok {
		t.Fatal("no safe Vmin observed")
	}
	// Fig. 3 anchor: bwaves on TTT's most robust core ⇒ 885 mV (±1 step
	// for the die's static jitter).
	if vmin < 880 || vmin > 890 {
		t.Errorf("bwaves TTT core4 Vmin = %v, want 885±5 mV", vmin)
	}
	crash, ok := c.CrashVoltage()
	if !ok {
		t.Fatal("no crash observed — sweep too shallow")
	}
	if crash >= vmin {
		t.Errorf("crash %v not below Vmin %v", crash, vmin)
	}
	// bwaves has the paper's widest unsafe region: expect ≥ 25 mV.
	if width := vmin - crash; width < 25 {
		t.Errorf("bwaves unsafe region %v mV, want wide (≥25)", width)
	}
	// Region ordering down the sweep: safe → unsafe → crash, no interleave
	// of safe after unsafe.
	seenUnsafe, seenCrash := false, false
	for _, s := range c.Steps {
		switch s.Region() {
		case Safe:
			if seenUnsafe || seenCrash {
				t.Errorf("safe step at %v after unsafe/crash", s.Voltage)
			}
		case Unsafe:
			seenUnsafe = true
			if seenCrash {
				t.Errorf("unsafe step at %v after crash", s.Voltage)
			}
		case Crash:
			seenCrash = true
		}
	}
	if !seenUnsafe {
		t.Error("no unsafe region observed for bwaves (paper Fig. 5 shows a wide one)")
	}
}

// The machine must be back at nominal voltage after a campaign (safe data
// collection restores nominal after every run).
func TestFrameworkRestoresNominal(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{0})
	cfg.Runs = 3
	if _, err := fw.Execute(cfg); err != nil {
		t.Fatal(err)
	}
	if got := fw.Machine().PMDVoltage(); got != units.NominalPMD {
		t.Errorf("voltage after campaign = %v, want nominal", got)
	}
	if !fw.Machine().Responsive() {
		t.Error("machine left unresponsive")
	}
	if fw.Watchdog().Recoveries() == 0 {
		t.Error("sweep reached the crash region but the watchdog never recovered")
	}
}

// Severity at a fixed voltage must grow (weakly) as voltage decreases
// through the unsafe region.
func TestSeverityGrowsDownward(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "bwaves/ref"), []int{0})
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := results[0]
	vmin, _ := c.SafeVmin()
	crash, _ := c.CrashVoltage()
	sevAtVmin := c.SeverityAt(vmin, PaperWeights)
	if sevAtVmin != 0 {
		t.Errorf("severity at Vmin = %v, want 0", sevAtVmin)
	}
	// Compare the first unsafe step against two steps above the crash
	// point: deep must dominate shallow.
	shallow := c.SeverityAt(vmin-units.VoltageStep, PaperWeights)
	deep := c.SeverityAt(crash, PaperWeights)
	if deep <= shallow {
		t.Errorf("severity not increasing: shallow %v, deep %v", shallow, deep)
	}
}

// X-Gene headline finding (§3.4): in the unsafe region SDCs appear at
// voltages where corrected errors alone have not yet appeared — the first
// abnormal step must include SDC.
func TestSDCAppearsFirstOnXGene(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "bwaves/ref", "leslie3d/ref", "gamess/ref"), []int{4})
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range results {
		obs, ok := c.FirstAbnormalEffects()
		if !ok {
			t.Errorf("%s: no abnormal region", c.BenchmarkID())
			continue
		}
		if !obs.SDC {
			t.Errorf("%s: first abnormal step %v has no SDC (X-Gene ordering violated)",
				c.BenchmarkID(), obs)
		}
	}
}

// Same campaign on an Itanium-modeled machine: corrected errors come first.
func TestCEFirstOnItaniumModel(t *testing.T) {
	m := xgene.NewWithModel(silicon.NewChip(silicon.TTT, 1), silicon.Itanium)
	fw := New(m)
	cfg := DefaultConfig(specs(t, "bwaves/ref"), []int{4})
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := results[0].FirstAbnormalEffects()
	if !ok {
		t.Fatal("no abnormal region")
	}
	if !obs.CE || obs.SDC || obs.SC {
		t.Errorf("Itanium first abnormal = %v, want CE alone", obs)
	}
}

// §3.2 anchor: at 1.2 GHz every core of the TTT part is safe down to
// 760 mV and crashes right below, with no unsafe region.
func TestHalfSpeedVmin760(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "mcf/ref"), []int{0, 4})
	cfg.Frequency = 1200
	cfg.StartVoltage = 800
	cfg.StopVoltage = 740
	cfg.Runs = 5
	results, err := fw.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range results {
		vmin, ok := c.SafeVmin()
		if !ok || vmin != 760 {
			t.Errorf("core %d: 1.2GHz Vmin = %v, want 760mV", c.Core, vmin)
		}
		if len(c.UnsafeSteps()) != 0 {
			t.Errorf("core %d: unsafe region exists at 1.2GHz", c.Core)
		}
		crash, ok := c.CrashVoltage()
		if !ok || crash != 755 {
			t.Errorf("core %d: crash = %v, want 755mV (right below Vmin)", c.Core, crash)
		}
	}
}

// Raw record volume: steps × runs per benchmark/core until early stop.
func TestExecuteRecordAccounting(t *testing.T) {
	fw := tttFramework()
	cfg := DefaultConfig(specs(t, "gromacs/ref"), []int{4})
	cfg.Runs = 4
	recs, err := fw.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs)%cfg.Runs != 0 {
		t.Errorf("record count %d not a multiple of runs", len(recs))
	}
	if len(recs) < 10*cfg.Runs {
		t.Errorf("suspiciously few records: %d", len(recs))
	}
	// Raw() returns a copy including these records.
	if got := len(fw.Raw()); got != len(recs) {
		t.Errorf("Raw() = %d records, want %d", got, len(recs))
	}
	// Early stop: the sweep must not have visited every voltage down to
	// StopVoltage (it crashes well above 840).
	lowest := recs[len(recs)-1].Voltage
	if lowest <= cfg.StopVoltage {
		t.Errorf("sweep went all the way to %v despite early stop", lowest)
	}
}

func TestExecuteInvalidConfig(t *testing.T) {
	fw := tttFramework()
	if _, err := fw.Execute(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// Parse must group records correctly and keep voltages descending.
func TestParseGrouping(t *testing.T) {
	recs := []RunRecord{
		{Chip: "TTT", Benchmark: "a", Input: "ref", Core: 0, Frequency: 2400, Voltage: 900},
		{Chip: "TTT", Benchmark: "a", Input: "ref", Core: 0, Frequency: 2400, Voltage: 905, OutputMismatch: true},
		{Chip: "TTT", Benchmark: "a", Input: "ref", Core: 0, Frequency: 2400, Voltage: 905},
		{Chip: "TTT", Benchmark: "a", Input: "ref", Core: 1, Frequency: 2400, Voltage: 905},
		{Chip: "TFF", Benchmark: "a", Input: "ref", Core: 0, Frequency: 2400, Voltage: 905},
		{Chip: "TTT", Benchmark: "b", Input: "x", Core: 0, Frequency: 1200, Voltage: 760},
	}
	results := Parse(recs)
	if len(results) != 4 {
		t.Fatalf("parsed %d campaigns, want 4", len(results))
	}
	// Deterministic order: TFF/a before TTT/a core0, core1, TTT/b.
	if results[0].Chip != "TFF" {
		t.Errorf("order[0] = %+v", results[0])
	}
	ttt := results[1]
	if ttt.Chip != "TTT" || ttt.Core != 0 || len(ttt.Steps) != 2 {
		t.Fatalf("TTT/a/0 = %+v", ttt)
	}
	if ttt.Steps[0].Voltage != 905 || ttt.Steps[1].Voltage != 900 {
		t.Errorf("steps not descending: %+v", ttt.Steps)
	}
	if ttt.Steps[0].Tally.N != 2 || ttt.Steps[0].Tally.SDC != 1 {
		t.Errorf("tally = %+v", ttt.Steps[0].Tally)
	}
}

// The slot parser behind LadderRunner.Characterize must parse any split
// and any order of a stream exactly as Parse parses the flat stream, and
// Characterize must equal Parse over Execute.
func TestParseSlotsMatchesFlat(t *testing.T) {
	cfg := DefaultConfig(specs(t, "bwaves/ref", "mcf/ref"), []int{0, 4})
	cfg.Runs = 3
	flat, err := tttFramework().Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Parse(flat)

	var slots [][]RunRecord
	for start := 0; start < len(flat); {
		end := start + 1 + (start*7)%97 // uneven splits, cutting steps and campaigns
		slots = append(slots, flat[start:min(end, len(flat))])
		start = end
	}
	if got := parseSlots(slots); !reflect.DeepEqual(got, want) {
		t.Error("parseSlots over a split stream differs from Parse over the flat stream")
	}
	shuffled := append([]RunRecord(nil), flat...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if got := Parse(shuffled); !reflect.DeepEqual(got, want) {
		t.Error("Parse over a shuffled stream differs from the canonical stream")
	}
	// Campaigns dealt round-robin, one record at a time: each campaign's
	// voltages still descend, but every record follows another
	// campaign's, so each step is looked up again at its own voltage.
	var camps [][]RunRecord
	for start := 0; start < len(flat); {
		end := start + 1
		for end < len(flat) && flat[end].Benchmark == flat[start].Benchmark && flat[end].Core == flat[start].Core {
			end++
		}
		camps = append(camps, flat[start:end])
		start = end
	}
	var dealt []RunRecord
	for i := 0; len(dealt) < len(flat); i++ {
		for _, c := range camps {
			if i < len(c) {
				dealt = append(dealt, c[i])
			}
		}
	}
	if got := Parse(dealt); len(camps) < 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("Parse over %d campaigns dealt round-robin differs from the canonical stream", len(camps))
	}

	FlushCampaignCache()
	got, err := NewLadderRunner(func() *xgene.Machine { return xgene.New(silicon.NewChip(silicon.TTT, 1)) }).Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("LadderRunner.Characterize differs from Parse over the sequential stream")
	}
}

// Determinism: same seed ⇒ identical parsed results.
func TestCampaignDeterministic(t *testing.T) {
	run := func() []*CampaignResult {
		fw := tttFramework()
		cfg := DefaultConfig(specs(t, "soplex/ref"), []int{2})
		cfg.Runs = 5
		res, err := fw.Characterize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different campaign counts")
	}
	for i := range a {
		if len(a[i].Steps) != len(b[i].Steps) {
			t.Fatalf("campaign %d: different step counts", i)
		}
		for j := range a[i].Steps {
			if a[i].Steps[j] != b[i].Steps[j] {
				t.Fatalf("campaign %d step %d differs: %+v vs %+v",
					i, j, a[i].Steps[j], b[i].Steps[j])
			}
		}
	}
}
