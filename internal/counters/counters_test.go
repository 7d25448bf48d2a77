package counters

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/workload"
)

func TestNames(t *testing.T) {
	ns := Names()
	if len(ns) != NumEvents {
		t.Fatalf("got %d names, want %d", len(ns), NumEvents)
	}
	seen := map[string]bool{}
	for i, n := range ns {
		if n == "" {
			t.Errorf("event %d has empty name", i)
		}
		if seen[n] {
			t.Errorf("duplicate event name %q", n)
		}
		seen[n] = true
	}
	if Event(0).Name() != "DISPATCH_STALL_CYCLES" {
		t.Errorf("event 0 = %q", Event(0).Name())
	}
	if got := Event(-1).Name(); !strings.HasPrefix(got, "EVENT(") {
		t.Errorf("out-of-range name = %q", got)
	}
	if got := Event(500).Name(); !strings.HasPrefix(got, "EVENT(") {
		t.Errorf("out-of-range name = %q", got)
	}
}

func TestSelectedEventsAreDistinct(t *testing.T) {
	seen := map[Event]bool{}
	for _, e := range Selected {
		if seen[e] {
			t.Errorf("duplicate selected event %v", e)
		}
		seen[e] = true
		if e < 0 || int(e) >= NumEvents {
			t.Errorf("selected event %v out of range", e)
		}
	}
}

func TestMeasureShapeAndPositivity(t *testing.T) {
	s, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(s, rand.New(rand.NewSource(1)))
	if len(m) != NumEvents {
		t.Fatalf("sample has %d events", len(m))
	}
	for e, v := range m {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("event %d (%s) = %v", e, Event(e).Name(), v)
		}
	}
}

func TestMeasureRepeatability(t *testing.T) {
	s, _ := workload.Lookup("mcf/ref")
	a := Measure(s, rand.New(rand.NewSource(7)))
	b := Measure(s, rand.New(rand.NewSource(7)))
	for e := range a {
		if a[e] != b[e] {
			t.Fatalf("same seed, different measurement at event %d", e)
		}
	}
	// Different seeds: close but not identical (≈1 % noise).
	c := Measure(s, rand.New(rand.NewSource(8)))
	identical := true
	for e := range a {
		if a[e] != c[e] {
			identical = false
		}
		if a[e] > 0 {
			reldiff := math.Abs(a[e]-c[e]) / a[e]
			if reldiff > 0.50 {
				t.Errorf("event %d noise %v too large", e, reldiff)
			}
		}
	}
	if identical {
		t.Error("different seeds produced identical measurements")
	}
}

// The selected events must actually discriminate the workloads along the
// profile dimensions their formulas encode.
func TestSelectedEventsTrackProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mcf, _ := workload.Lookup("mcf/ref")       // memory-bound
	gamess, _ := workload.Lookup("gamess/ref") // fp/pipeline-bound
	mMcf := Measure(mcf, rng)
	mGam := Measure(gamess, rng)
	if mMcf[MemReadAccess] <= mGam[MemReadAccess] {
		t.Errorf("mcf mem reads %v not above gamess %v", mMcf[MemReadAccess], mGam[MemReadAccess])
	}
	if mMcf[DispatchStallCycles] <= mGam[DispatchStallCycles] {
		t.Errorf("mcf stalls %v not above gamess %v", mMcf[DispatchStallCycles], mGam[DispatchStallCycles])
	}
	if mGam[ExceptionsTaken] <= mMcf[ExceptionsTaken] {
		t.Errorf("gamess exceptions %v not above mcf %v", mGam[ExceptionsTaken], mMcf[ExceptionsTaken])
	}
	sjeng, _ := workload.Lookup("sjeng/ref") // branch-heavy
	lbm, _ := workload.Lookup("lbm/ref")     // branch-light
	mSj := Measure(sjeng, rng)
	mLbm := Measure(lbm, rng)
	if mSj[BTBMispred] <= mLbm[BTBMispred] {
		t.Errorf("sjeng BTB misses %v not above lbm %v", mSj[BTBMispred], mLbm[BTBMispred])
	}
}

func TestMeasureSuite(t *testing.T) {
	specs := workload.PrimarySuite()
	samples := MeasureSuite(specs, rand.New(rand.NewSource(3)))
	if len(samples) != len(specs) {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, m := range samples {
		if len(m) != NumEvents {
			t.Errorf("sample %d has %d events", i, len(m))
		}
	}
}

// Counts scale with input size (bigger datasets run more instructions).
func TestMeasureScalesWithSize(t *testing.T) {
	big, _ := workload.Lookup("bwaves/ref")     // size 400
	small, _ := workload.Lookup("bwaves/train") // size 180
	rng := rand.New(rand.NewSource(4))
	mb := Measure(big, rng)
	ms := Measure(small, rng)
	if mb[MemReadAccess] <= ms[MemReadAccess] {
		t.Errorf("ref counts %v not above train %v", mb[MemReadAccess], ms[MemReadAccess])
	}
}

// Every one of the 101 events must respond to at least one profile change;
// dead features would be degenerate columns in the regression.
func TestNoDeadEvents(t *testing.T) {
	profiles := []silicon.StressProfile{
		{Pipeline: 1}, {FPU: 1}, {Memory: 1}, {Branch: 1}, {ILP: 1}, {},
	}
	for e := Event(0); e < NumEvents; e++ {
		base := rate(e, profiles[5])
		responds := false
		for _, p := range profiles[:5] {
			if math.Abs(rate(e, p)-base) > 1e-9 {
				responds = true
				break
			}
		}
		if !responds {
			t.Errorf("event %d (%s) ignores every profile dimension", e, e.Name())
		}
	}
}

func TestMagnitudesReasonable(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		m := magnitude(e)
		if m < 1e3 || m > 1e8+1 {
			t.Errorf("event %d magnitude %v outside [1e3, 1e8]", e, m)
		}
	}
}

// The per-(event, workload) component is deterministic: the same profile
// always produces the same rate for every event (no hidden global state).
func TestRatesDeterministicPerProfile(t *testing.T) {
	s, _ := workload.Lookup("omnetpp/ref")
	for e := Event(0); e < NumEvents; e++ {
		if rate(e, s.Profile) != rate(e, s.Profile) {
			t.Fatalf("event %d rate unstable", e)
		}
	}
}

// Two workloads with different profiles get different per-workload
// components on most events — the fingerprint that lets models
// distinguish programs beyond the five latent dimensions.
func TestPerWorkloadFingerprint(t *testing.T) {
	a, _ := workload.Lookup("omnetpp/ref")
	b, _ := workload.Lookup("astar/ref")
	diff := 0
	for e := Event(len(Selected)); e < NumEvents; e++ {
		if rate(e, a.Profile) != rate(e, b.Profile) {
			diff++
		}
	}
	if diff < (NumEvents-len(Selected))*3/4 {
		t.Errorf("only %d distractor events distinguish the two programs", diff)
	}
}
