package mitigate

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xvolt/internal/silicon"
	"xvolt/internal/units"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

func TestTolerantClasses(t *testing.T) {
	for _, c := range []TolerantClass{Approximate, Media, Detection} {
		if strings.HasPrefix(c.String(), "class(") {
			t.Errorf("%d missing name", int(c))
		}
	}
	if !strings.HasPrefix(TolerantClass(9).String(), "class(") {
		t.Error("unknown class name wrong")
	}
}

func TestExecutorValidation(t *testing.T) {
	e := &Executor{}
	spec, _ := workload.Lookup("mcf/ref")
	if _, err := e.Run(spec, 0, Strict); !errors.Is(err, ErrNoMachine) {
		t.Errorf("no-machine err = %v", err)
	}
}

func TestExecutorCleanAtNominal(t *testing.T) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	e := &Executor{Machine: m, SafeVoltage: units.NominalPMD, MaxRetries: 2,
		Rng: rand.New(rand.NewSource(1))}
	spec, _ := workload.Lookup("bwaves/ref")
	out, err := e.Run(spec, 4, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Retries != 0 || out.Escalated {
		t.Errorf("nominal outcome = %+v", out)
	}
}

// In the unsafe region a strict workload must converge to a correct output
// via rollback/re-execution, possibly escalating to the safe voltage.
func TestExecutorRecoversFromSDCs(t *testing.T) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	spec, _ := workload.Lookup("bwaves/ref")
	// Deep in core 0's unsafe region: SDCs frequent, crashes rare.
	if err := m.SetPMDVoltage(900); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Machine: m, SafeVoltage: units.NominalPMD, MaxRetries: 3,
		Rng: rand.New(rand.NewSource(7))}
	sawRetry := false
	for i := 0; i < 30 && m.Responsive(); i++ {
		out, err := e.Run(spec, 0, Strict)
		if errors.Is(err, ErrMachineDown) {
			m.Reset()
			if err := m.SetPMDVoltage(900); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct {
			t.Fatalf("strict execution returned wrong output: %+v", out)
		}
		if out.Retries > 0 {
			sawRetry = true
		}
		// Restore the undervolted point if an escalation raised it.
		if out.Escalated {
			if err := m.SetPMDVoltage(900); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sawRetry {
		t.Error("no rollbacks observed in 30 unsafe-region executions")
	}
}

// Tolerant classes accept SDC outputs without retrying.
func TestExecutorTolerantAcceptsSDC(t *testing.T) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	spec, _ := workload.Lookup("bwaves/ref")
	if err := m.SetPMDVoltage(900); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Machine: m, SafeVoltage: units.NominalPMD, MaxRetries: 3,
		Rng: rand.New(rand.NewSource(3))}
	sawTolerated := false
	for i := 0; i < 40 && m.Responsive(); i++ {
		out, err := e.Run(spec, 0, Media)
		if errors.Is(err, ErrMachineDown) {
			m.Reset()
			if err := m.SetPMDVoltage(900); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Retries may still occur for application crashes (no output to
		// tolerate), but any produced output — right or wrong — must be
		// accepted immediately, so wrong outputs do surface.
		if !out.Correct {
			sawTolerated = true
		}
	}
	if !sawTolerated {
		t.Error("no SDC output tolerated in 40 unsafe-region runs")
	}
}

// A crashed machine surfaces ErrMachineDown rather than hanging.
func TestExecutorMachineDown(t *testing.T) {
	m := xgene.New(silicon.NewChip(silicon.TTT, 1))
	spec, _ := workload.Lookup("bwaves/ref")
	if err := m.SetPMDVoltage(700); err != nil {
		t.Fatal(err)
	}
	e := &Executor{Machine: m, SafeVoltage: units.NominalPMD, MaxRetries: 1,
		Rng: rand.New(rand.NewSource(5))}
	var sawDown bool
	for i := 0; i < 20; i++ {
		if _, err := e.Run(spec, 0, Strict); errors.Is(err, ErrMachineDown) {
			sawDown = true
			break
		}
	}
	if !sawDown {
		t.Error("executor never reported the crash at 700mV")
	}
}
