package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEffectStrings(t *testing.T) {
	want := map[Effect]string{NO: "NO", SDC: "SDC", CE: "CE", UE: "UE", AC: "AC", SC: "SC"}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), s)
		}
	}
	if !strings.HasPrefix(Effect(42).String(), "Effect(") {
		t.Error("unknown effect name wrong")
	}
}

// Table 4 anchor: the exact weights used in the paper.
func TestPaperWeights(t *testing.T) {
	w := PaperWeights
	if w.SC != 16 || w.AC != 8 || w.SDC != 4 || w.UE != 2 || w.CE != 1 {
		t.Errorf("PaperWeights = %+v, want Table 4 (16/8/4/2/1)", w)
	}
}

func TestWeightOrdering(t *testing.T) {
	// Criticality ordering: SC > AC > SDC > UE > CE > NO.
	w := PaperWeights
	if !(w.SC > w.AC && w.AC > w.SDC && w.SDC > w.UE && w.UE > w.CE && w.CE > 0) {
		t.Errorf("weights not ordered by criticality: %+v", w)
	}
}

func TestObservation(t *testing.T) {
	var o Observation
	if !o.Clean() {
		t.Error("zero observation not clean")
	}
	if got := o.EffectList(); len(got) != 1 || got[0] != NO {
		t.Errorf("clean EffectList = %v", got)
	}
	if o.String() != "NO" {
		t.Errorf("clean String = %q", o.String())
	}
	o = Observation{SDC: true, CE: true}
	if o.Clean() {
		t.Error("SDC+CE observation clean")
	}
	if o.String() != "SDC+CE" {
		t.Errorf("String = %q", o.String())
	}
	got := o.EffectList()
	if len(got) != 2 || got[0] != SDC || got[1] != CE {
		t.Errorf("EffectList = %v", got)
	}
	all := Observation{SDC: true, CE: true, UE: true, AC: true, SC: true}
	if len(all.EffectList()) != 5 {
		t.Errorf("all-effects list = %v", all.EffectList())
	}
}

func TestTallyAdd(t *testing.T) {
	var tl Tally
	tl.Add(Observation{})
	tl.Add(Observation{SDC: true})
	tl.Add(Observation{SDC: true, CE: true})
	tl.Add(Observation{SC: true})
	if tl.N != 4 || tl.SDC != 2 || tl.CE != 1 || tl.SC != 1 || tl.UE != 0 || tl.AC != 0 {
		t.Errorf("tally = %+v", tl)
	}
	if tl.AllClean() {
		t.Error("tally with effects reported clean")
	}
	if !tl.AnySC() {
		t.Error("AnySC false with one crash")
	}
	var clean Tally
	clean.Add(Observation{})
	if !clean.AllClean() || clean.AnySC() {
		t.Error("clean tally misreported")
	}
}

// The paper's worked severity example shape: severity = Σ W·count/N.
func TestSeverityFormula(t *testing.T) {
	// 10 runs: 2 SDC, 5 CE → S = 4·0.2 + 1·0.5 = 1.3 (a value visible in
	// the paper's Fig. 5 heat map).
	tl := Tally{N: 10, SDC: 2, CE: 5}
	if got := tl.Severity(PaperWeights); got != 1.3 {
		t.Errorf("severity = %v, want 1.3", got)
	}
	// All runs SDC → 4.0 (the dominant Fig. 5 plateau value).
	tl = Tally{N: 10, SDC: 10}
	if got := tl.Severity(PaperWeights); got != 4.0 {
		t.Errorf("severity = %v, want 4.0", got)
	}
	// All runs SC → 16.0 (the crash plateau).
	tl = Tally{N: 10, SC: 10}
	if got := tl.Severity(PaperWeights); got != 16.0 {
		t.Errorf("severity = %v, want 16.0", got)
	}
	// Empty tally.
	if got := (Tally{}).Severity(PaperWeights); got != 0 {
		t.Errorf("empty severity = %v", got)
	}
}

// §4.4 mitigation-class anchors: severity values named in the text.
func TestSeverityMitigationAnchors(t *testing.T) {
	w := PaperWeights
	// "Corrected errors first (severity=1)"
	if got := (Tally{N: 1, CE: 1}).Severity(w); got != 1 {
		t.Errorf("CE-only severity = %v", got)
	}
	// "SDCs alone (severity=4)"
	if got := (Tally{N: 1, SDC: 1}).Severity(w); got != 4 {
		t.Errorf("SDC-only severity = %v", got)
	}
	// "with corrected and uncorrected errors (severity=5-7)"
	if got := (Tally{N: 1, SDC: 1, CE: 1}).Severity(w); got != 5 {
		t.Errorf("SDC+CE severity = %v", got)
	}
	if got := (Tally{N: 1, SDC: 1, CE: 1, UE: 1}).Severity(w); got != 7 {
		t.Errorf("SDC+CE+UE severity = %v", got)
	}
	// "Application and system crashes ... (severity 8-19)"
	if got := (Tally{N: 1, AC: 1}).Severity(w); got != 8 {
		t.Errorf("AC severity = %v", got)
	}
	if got := (Tally{N: 1, SC: 1, AC: 1, SDC: 1, CE: 1, UE: 1}).Severity(w); got != 31 {
		// every effect at once is the theoretical max
		t.Errorf("max severity = %v", got)
	}
}

// Property: severity is monotone — adding any abnormal observation never
// lowers the weighted sum of counts, and severity stays within [0, max].
func TestSeverityProperties(t *testing.T) {
	prop := func(n uint8, sdc, ce, ue, ac, sc uint8) bool {
		total := int(n)%20 + 1
		tl := Tally{
			N:   total,
			SDC: int(sdc) % (total + 1),
			CE:  int(ce) % (total + 1),
			UE:  int(ue) % (total + 1),
			AC:  int(ac) % (total + 1),
			SC:  int(sc) % (total + 1),
		}
		s := tl.Severity(PaperWeights)
		if s < 0 || s > (Tally{N: 1, SDC: 1, CE: 1, UE: 1, AC: 1, SC: 1}).Severity(PaperWeights) {
			return false
		}
		// Adding one all-effects run cannot lower severity.
		t2 := tl
		t2.Add(Observation{SDC: true, CE: true, UE: true, AC: true, SC: true})
		return t2.Severity(PaperWeights) >= s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: severity of a tally of k clean runs is 0 regardless of k.
func TestCleanRunsZeroSeverity(t *testing.T) {
	prop := func(k uint8) bool {
		var tl Tally
		for i := 0; i < int(k)%32; i++ {
			tl.Add(Observation{})
		}
		return tl.Severity(PaperWeights) == 0 && tl.AllClean()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Custom weights flow through (§3.4.1: "different weight values can be
// used according to the importance of each observed abnormal behavior").
func TestCustomWeights(t *testing.T) {
	w := Weights{SDC: 100, CE: 1, UE: 1, AC: 1, SC: 1}
	tl := Tally{N: 2, SDC: 1}
	if got := tl.Severity(w); got != 50 {
		t.Errorf("custom severity = %v, want 50", got)
	}
}
