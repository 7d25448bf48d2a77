package core

import (
	"fmt"

	"xvolt/internal/trace"
	"xvolt/internal/units"
)

// ExecuteCampaigns runs an explicit campaign list (one benchmark pinned
// per core, Figure 9 style) and returns its run records in list order.
// Production reads campaign lists through CharacterizeCampaigns; the
// record form stays for the tests that compare lists with the sequential
// Framework.
func (r *LadderRunner) ExecuteCampaigns(cfg Config, grid []Campaign) ([]RunRecord, error) {
	if err := checkCampaigns(cfg, grid); err != nil {
		return nil, err
	}
	return r.executeFlat(cfg, grid)
}

// SeverityAt evaluates the severity at a swept voltage (0 if not swept).
func (c *CampaignResult) SeverityAt(v units.MilliVolts, w Weights) float64 {
	for _, s := range c.Steps {
		if s.Voltage == v {
			return s.Severity(w)
		}
	}
	return 0
}

// Validate checks the structural invariants of a campaign result: strictly
// descending on-grid voltages.
func (c *CampaignResult) Validate() error {
	prev := units.MilliVolts(1 << 30)
	for i, s := range c.Steps {
		if !s.Voltage.OnGrid() {
			return fmt.Errorf("core: step %d voltage %v off grid", i, s.Voltage)
		}
		if s.Voltage >= prev {
			return fmt.Errorf("core: step %d voltage %v not descending", i, s.Voltage)
		}
		prev = s.Voltage
	}
	return nil
}

// CountKind tallies a trace log's retained events of one kind.
func CountKind(l *trace.Log, k trace.Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
