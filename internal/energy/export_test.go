package energy

import (
	"fmt"

	"xvolt/internal/units"
)

// Validate checks the point is reachable by the regulators.
func (p OperatingPoint) Validate() error {
	if !p.Voltage.OnGrid() || p.Voltage <= 0 {
		return fmt.Errorf("energy: voltage %v off grid", p.Voltage)
	}
	for pmd, f := range p.Frequencies {
		if !units.ValidFrequency(f) {
			return fmt.Errorf("energy: PMD%d frequency %v invalid", pmd, f)
		}
	}
	return nil
}
