package experiments

import (
	"xvolt/internal/silicon"
	"xvolt/internal/units"
)

// Paper returns the paper-fidelity options.
func Paper() Options { return Options{Runs: 10, Seed: 1} }

// Quick returns cheap options for smoke tests.
func Quick() Options { return Options{Runs: 3, Seed: 1} }

// SensitiveVmin returns the most-sensitive-core (highest) safe Vmin.
func (f *Fig4Result) SensitiveVmin(chip, benchmark string) (units.MilliVolts, bool) {
	arr, ok := f.PerCore[chip][benchmark]
	if !ok {
		return 0, false
	}
	worst := units.MilliVolts(0)
	found := false
	for _, cr := range arr {
		if cr.HasVmin && cr.SafeVmin > worst {
			worst, found = cr.SafeVmin, true
		}
	}
	return worst, found
}

// PMDVmin returns a chip's per-PMD worst safe Vmin over one benchmark
// placed on both cores of each PMD (§3.3's PMD-robustness comparison).
func (f *Fig4Result) PMDVmin(chip, benchmark string) ([silicon.NumPMDs]units.MilliVolts, bool) {
	var out [silicon.NumPMDs]units.MilliVolts
	arr, ok := f.PerCore[chip][benchmark]
	if !ok {
		return out, false
	}
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		for _, c := range []int{2 * pmd, 2*pmd + 1} {
			if arr[c].HasVmin && arr[c].SafeVmin > out[pmd] {
				out[pmd] = arr[c].SafeVmin
			}
		}
	}
	return out, true
}
