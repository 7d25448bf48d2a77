// Package edac models the Linux EDAC (Error Detection And Correction)
// reporting stack the paper's framework reads (§2.2, Table 3): corrected
// and uncorrected error counters per protected structure.
//
// The characterization harness snapshots the counters before and after
// each run; a positive delta classifies the run as CE and/or UE.
package edac

import (
	"fmt"
	"sync"
)

// Location identifies the protected hardware structure reporting an error.
type Location int

const (
	// L1 caches are parity-protected on the X-Gene 2 (Table 2).
	L1 Location = iota
	// L2 caches are ECC-protected, 256 KB per PMD.
	L2
	// L3 is the shared 8 MB ECC-protected cache.
	L3
	// DRAM covers the memory controllers (MCUs).
	DRAM
	numLocations
)

// Locations lists all reporting structures.
var Locations = []Location{L1, L2, L3, DRAM}

// String names the location like an EDAC sysfs node.
func (l Location) String() string {
	switch l {
	case L1:
		return "l1"
	case L2:
		return "l2"
	case L3:
		return "l3"
	case DRAM:
		return "mc"
	default:
		return fmt.Sprintf("loc(%d)", int(l))
	}
}

// Counts is a snapshot of the CE/UE counters per location.
type Counts struct {
	CE [numLocations]uint64
	UE [numLocations]uint64
}

// TotalCE sums corrected errors over all locations.
func (c Counts) TotalCE() uint64 {
	var s uint64
	for _, v := range c.CE {
		s += v
	}
	return s
}

// TotalUE sums uncorrected errors over all locations.
func (c Counts) TotalUE() uint64 {
	var s uint64
	for _, v := range c.UE {
		s += v
	}
	return s
}

// Sub returns the per-location difference c − prev (the "what happened
// during this run" delta).
func (c Counts) Sub(prev Counts) Counts {
	var d Counts
	for i := range c.CE {
		d.CE[i] = c.CE[i] - prev.CE[i]
		d.UE[i] = c.UE[i] - prev.UE[i]
	}
	return d
}

// Driver is the EDAC accounting state of one machine.
type Driver struct {
	mu     sync.Mutex
	counts Counts
}

// New returns an empty driver.
func New() *Driver { return &Driver{} }

// ReportCE records n corrected errors at a location.
func (d *Driver) ReportCE(loc Location, core, n int) {
	d.report(loc, core, n, false)
}

// ReportUE records n uncorrected (but detected) errors at a location.
func (d *Driver) ReportUE(loc Location, core, n int) {
	d.report(loc, core, n, true)
}

func (d *Driver) report(loc Location, core, n int, ue bool) {
	if n <= 0 || loc < 0 || loc >= numLocations {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ue {
		d.counts.UE[loc] += uint64(n)
	} else {
		d.counts.CE[loc] += uint64(n)
	}
}

// Snapshot returns the current cumulative counters, like reading the sysfs
// ce_count/ue_count files.
func (d *Driver) Snapshot() Counts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counts
}

// Reset clears the counters (a fresh boot).
func (d *Driver) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counts = Counts{}
}
