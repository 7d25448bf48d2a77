package watchdog

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"xvolt/internal/obs"

	"xvolt/internal/silicon"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// fakeTarget is a scriptable heartbeat source. It is mutex-guarded because
// the async watchdog loop probes it from another goroutine.
type fakeTarget struct {
	mu       sync.Mutex
	beat     uint64
	aliveVal bool
	offs     int
	ons      int
	beatOnUp bool
}

func (f *fakeTarget) setAlive(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aliveVal = v
}

func (f *fakeTarget) Heartbeat() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aliveVal {
		f.beat++
	}
	return f.beat
}

func (f *fakeTarget) PowerOff() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offs++
	f.aliveVal = false
}

func (f *fakeTarget) PowerOn() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ons++
	if f.beatOnUp {
		f.aliveVal = true
	}
}

func TestProbeAliveWhileBeating(t *testing.T) {
	ft := &fakeTarget{aliveVal: true}
	w := New(ft, 3)
	for i := 0; i < 10; i++ {
		if got := w.Probe(); got != Alive {
			t.Fatalf("probe %d = %v, want alive", i, got)
		}
	}
	if w.Recoveries() != 0 {
		t.Errorf("recoveries = %d", w.Recoveries())
	}
}

func TestHangDetectionAndRecovery(t *testing.T) {
	ft := &fakeTarget{aliveVal: true, beatOnUp: true}
	w := New(ft, 3)
	w.Probe() // baseline
	ft.setAlive(false)
	if got := w.Probe(); got != Stalled {
		t.Fatalf("first silent probe = %v", got)
	}
	if got := w.Probe(); got != Stalled {
		t.Fatalf("second silent probe = %v", got)
	}
	if got := w.Probe(); got != Recovered {
		t.Fatalf("third silent probe = %v, want recovered", got)
	}
	if ft.offs != 1 || ft.ons != 1 {
		t.Errorf("power cycle = %d offs, %d ons", ft.offs, ft.ons)
	}
	if w.Recoveries() != 1 {
		t.Errorf("recoveries = %d", w.Recoveries())
	}
	// After recovery the board beats again.
	if got := w.Probe(); got != Alive {
		t.Errorf("post-recovery probe = %v", got)
	}
}

func TestThresholdClamped(t *testing.T) {
	ft := &fakeTarget{aliveVal: true, beatOnUp: true}
	w := New(ft, 0)
	w.Probe()
	ft.setAlive(false)
	if got := w.Probe(); got != Recovered {
		t.Errorf("threshold 0 (clamped to 1) probe = %v", got)
	}
}

func TestRepeatedHangs(t *testing.T) {
	ft := &fakeTarget{aliveVal: true} // stays dead after power-on
	w := New(ft, 1)
	w.Probe()
	ft.setAlive(false)
	for i := 0; i < 5; i++ {
		// First probe after recovery re-baselines, second recovers again.
		w.Probe()
		w.Probe()
	}
	if w.Recoveries() < 3 {
		t.Errorf("recoveries = %d, want several", w.Recoveries())
	}
}

func TestStatusString(t *testing.T) {
	if Alive.String() != "alive" || Stalled.String() != "stalled" || Recovered.String() != "recovered" {
		t.Error("status names wrong")
	}
	if !strings.HasPrefix(Status(9).String(), "status(") {
		t.Error("unknown status name wrong")
	}
}

// End-to-end with the real machine model: crash it by undervolting, let the
// watchdog bring it back, exactly the campaign recovery path.
func TestRecoversRealMachine(t *testing.T) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	w := New(m, 2)
	spec, err := workload.Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := m.SetPMDVoltage(700); err != nil {
		t.Fatal(err)
	}
	crashed := false
	for i := 0; i < 100 && !crashed; i++ {
		res, err := m.RunOnCore(0, spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		crashed = !res.SystemUp
	}
	if !crashed {
		t.Fatal("machine did not crash at 700mV")
	}
	// Probe until the watchdog recovers it.
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		recovered = w.Probe() == Recovered
	}
	if !recovered {
		t.Fatal("watchdog never recovered the machine")
	}
	if !m.Responsive() {
		t.Fatal("machine not responsive after recovery")
	}
	if m.PMDVoltage() != 980 {
		t.Errorf("voltage after recovery = %v, want nominal", m.PMDVoltage())
	}
	// And it keeps probing Alive afterwards.
	if got := w.Probe(); got != Alive {
		t.Errorf("post-recovery probe = %v", got)
	}
}

func TestWatchdogMetrics(t *testing.T) {
	tgt := &fakeTarget{aliveVal: true}
	w := New(tgt, 2)
	reg := obs.NewRegistry()
	w.SetMetrics(reg)

	w.Probe() // alive
	w.Probe() // alive
	tgt.setAlive(false)
	if w.Probe() != Stalled {
		t.Fatal("expected stall")
	}
	if w.Probe() != Recovered {
		t.Fatal("expected recovery")
	}

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		"xvolt_watchdog_heartbeats_total":       2,
		"xvolt_watchdog_stalled_probes_total":   1,
		"xvolt_watchdog_timeouts_total":         1,
		"xvolt_watchdog_recoveries_total":       1,
		"xvolt_watchdog_recovery_seconds_count": 1,
	} {
		if got := snap[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if got := float64(w.Recoveries()); got != snap["xvolt_watchdog_recoveries_total"] {
		t.Errorf("metric %v != Recoveries() %v", snap["xvolt_watchdog_recoveries_total"], got)
	}
}
