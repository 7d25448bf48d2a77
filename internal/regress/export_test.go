package regress

import "fmt"

// RFEReference is the O(n·w³) reference implementation of RFE: the QR
// elimination loop (rfeQR, RFE's own path below gramMinFeatures) at any
// width, one full re-fit per elimination. Tests and benchmarks pin the
// Gram-matrix fast path against it; it is exported here so the external
// equivalence test can reach it.
func RFEReference(d *Dataset, keep int) (*RFEResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := d.NumFeatures()
	if keep < 1 || keep > w {
		return nil, fmt.Errorf("%w: keep=%d of %d", ErrBadKeep, keep, w)
	}
	return rfeQR(d, keep)
}
