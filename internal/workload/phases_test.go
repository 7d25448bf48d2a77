package workload

import (
	"testing"
)

func twoPhase(t *testing.T) *Phased {
	t.Helper()
	mcf, err := Lookup("mcf/ref")
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Lookup("bwaves/ref")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPhased("two", []Phase{
		{Spec: mcf, Weight: 0.4},
		{Spec: bw, Weight: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPhasedValidation(t *testing.T) {
	mcf, _ := Lookup("mcf/ref")
	if _, err := NewPhased("x", nil); err == nil {
		t.Error("empty phases accepted")
	}
	if _, err := NewPhased("x", []Phase{{Spec: nil, Weight: 1}}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := NewPhased("x", []Phase{{Spec: mcf, Weight: 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewPhased("x", []Phase{{Spec: mcf, Weight: 0.5}}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
	if _, err := NewPhased("x", []Phase{{Spec: mcf, Weight: 1}}); err != nil {
		t.Errorf("valid single phase rejected: %v", err)
	}
}
