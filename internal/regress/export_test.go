package regress

import (
	"fmt"
	"math"
)

// RFEReference is the O(n·w³) reference implementation of RFE: the QR
// elimination loop, which re-selects, re-standardizes and re-fits the
// shrinking dataset each step. Tests and benchmarks pin RFE's
// Gram-matrix path against it; it is exported here so the external
// equivalence test can reach it.
func RFEReference(d *Dataset, keep int) (*RFEResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := d.NumFeatures()
	if keep < 1 || keep > w {
		return nil, fmt.Errorf("%w: keep=%d of %d", ErrBadKeep, keep, w)
	}
	current := make([]int, w)
	for j := range current {
		current[j] = j
	}
	var eliminated []int // in elimination order
	for len(current) > keep {
		sub, err := d.Select(current)
		if err != nil {
			return nil, err
		}
		model, err := Fit(sub)
		if err != nil {
			return nil, err
		}
		worst, worstAbs := 0, math.Inf(1)
		for j, c := range model.Coef {
			if a := math.Abs(c); a < worstAbs {
				worst, worstAbs = j, a
			}
		}
		eliminated = append(eliminated, current[worst])
		current = append(current[:worst], current[worst+1:]...)
	}
	return finishRFE(d, current, eliminated)
}
