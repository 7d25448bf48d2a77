package fleet

import (
	"strings"
	"testing"

	apiv1 "xvolt/api/v1"
)

func TestHealthEscalation(t *testing.T) {
	pol := DefaultHealthPolicy()
	var h healthMachine

	// CE activity degrades a healthy board.
	to, reason, changed := h.observe(Signal{CE: 2, Severity: 0.5}, pol)
	if !changed || to != Degraded {
		t.Fatalf("CE signal: -> %v (changed=%v), want degraded", to, changed)
	}
	if reason == "" {
		t.Error("transition must carry a reason")
	}

	// More of the same keeps it degraded without a new transition.
	_, _, changed = h.observe(Signal{CE: 1, Severity: 0.5}, pol)
	if changed {
		t.Error("repeated degraded signal must not re-transition")
	}

	// Uncorrected errors escalate to unhealthy.
	to, _, changed = h.observe(Signal{UE: 1, Severity: 1}, pol)
	if !changed || to != Unhealthy {
		t.Fatalf("UE signal: -> %v, want unhealthy", to)
	}

	// High severity alone also marks unhealthy (from any state).
	h2 := healthMachine{}
	to, _, _ = h2.observe(Signal{SDC: true, AC: true, Severity: 7}, pol)
	if to != Unhealthy {
		t.Errorf("severity 7 -> %v, want unhealthy", to)
	}
}

func TestHealthCleanStreakStepsDown(t *testing.T) {
	pol := DefaultHealthPolicy()
	h := healthMachine{state: Unhealthy}

	for i := 0; i < pol.CleanPolls-1; i++ {
		if _, _, changed := h.observe(Signal{}, pol); changed {
			t.Fatalf("clean poll %d must not transition yet", i+1)
		}
	}
	to, _, changed := h.observe(Signal{}, pol)
	if !changed || to != Degraded {
		t.Fatalf("unhealthy after streak -> %v, want degraded (one level)", to)
	}
	for i := 0; i < pol.CleanPolls-1; i++ {
		h.observe(Signal{}, pol)
	}
	to, _, changed = h.observe(Signal{}, pol)
	if !changed || to != Healthy {
		t.Fatalf("degraded after streak -> %v, want healthy", to)
	}
	// Healthy stays healthy.
	if _, _, changed = h.observe(Signal{}, pol); changed {
		t.Error("healthy board must not transition on clean polls")
	}
}

func TestHealthErrorResetsStreak(t *testing.T) {
	pol := DefaultHealthPolicy()
	h := healthMachine{state: Degraded}
	h.observe(Signal{}, pol)
	h.observe(Signal{}, pol)
	// An error in the middle of a streak resets the count.
	h.observe(Signal{CE: 1}, pol)
	h.observe(Signal{}, pol)
	h.observe(Signal{}, pol)
	to, _, changed := h.observe(Signal{}, pol)
	if !changed || to != Healthy {
		t.Fatalf("streak after reset -> %v (changed=%v), want healthy", to, changed)
	}
}

func TestHealthRebootTrumpsEverything(t *testing.T) {
	pol := DefaultHealthPolicy()
	for _, from := range States {
		h := healthMachine{state: from}
		to, _, changed := h.observe(Signal{Rebooted: true, UE: 5, Severity: 20}, pol)
		if to != Recovering {
			t.Errorf("reboot from %v -> %v, want recovering", from, to)
		}
		if changed != (from != Recovering) {
			t.Errorf("reboot from %v: changed = %v", from, changed)
		}
	}
	// Recovering earns its way back through a clean streak.
	h := healthMachine{state: Recovering}
	for i := 0; i < pol.CleanPolls; i++ {
		h.observe(Signal{}, pol)
	}
	if h.state != Healthy {
		t.Errorf("recovering after streak = %v, want healthy", h.state)
	}
	// An error during recovery degrades instead.
	h2 := healthMachine{state: Recovering}
	to, _, _ := h2.observe(Signal{SDC: true, Severity: 2}, pol)
	if to != Degraded {
		t.Errorf("error while recovering -> %v, want degraded", to)
	}
}

func TestSignalClean(t *testing.T) {
	if !(Signal{}).clean() {
		t.Error("zero signal must be clean")
	}
	for _, sig := range []Signal{
		{CE: 1}, {UE: 1}, {SDC: true}, {AC: true}, {Rebooted: true},
	} {
		if sig.clean() {
			t.Errorf("signal %+v must not be clean", sig)
		}
	}
}

// TestTransitionString pins the transitions dump line: one api/v1
// rendering per line, states by name.
func TestTransitionString(t *testing.T) {
	var b strings.Builder
	tr := apiv1.Transition{Seq: 7, At: 0, Board: "board-01", From: Healthy.String(), To: Degraded.String(), Reason: "ce=1"}
	if err := writeTransitions(&b, []apiv1.Transition{tr}); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{"000007", "board-01", "healthy -> degraded", "(ce=1)\n"} {
		if !strings.Contains(s, want) {
			t.Errorf("transition line %q missing %q", s, want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	names := map[string]bool{}
	for _, st := range States {
		n := st.String()
		if n == "" || strings.Contains(n, "state(") || names[n] {
			t.Errorf("bad or duplicate state name %q", n)
		}
		names[n] = true
	}
	if len(States) != int(numStates) {
		t.Errorf("States lists %d states, want %d", len(States), int(numStates))
	}
}
