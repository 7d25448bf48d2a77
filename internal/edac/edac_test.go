package edac

import (
	"strings"
	"sync"
	"testing"
)

func TestLocationString(t *testing.T) {
	cases := map[Location]string{L1: "l1", L2: "l2", L3: "l3", DRAM: "mc"}
	for loc, want := range cases {
		if got := loc.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(loc), got, want)
		}
	}
	if got := Location(99).String(); !strings.HasPrefix(got, "loc(") {
		t.Errorf("unknown location = %q", got)
	}
}

func TestReportAndSnapshot(t *testing.T) {
	d := New()
	d.ReportCE(L2, 3, 5)
	d.ReportCE(L3, 3, 2)
	d.ReportUE(DRAM, -1, 1)
	c := d.Snapshot()
	if c.CE[L2] != 5 || c.CE[L3] != 2 || c.UE[DRAM] != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.TotalCE() != 7 || c.TotalUE() != 1 {
		t.Errorf("totals = %d/%d", c.TotalCE(), c.TotalUE())
	}
}

func TestReportIgnoresInvalid(t *testing.T) {
	d := New()
	d.ReportCE(L2, 0, 0)
	d.ReportCE(L2, 0, -3)
	d.ReportCE(Location(99), 0, 5)
	d.ReportUE(Location(-1), 0, 5)
	if c := d.Snapshot(); c.TotalCE() != 0 || c.TotalUE() != 0 {
		t.Errorf("invalid reports counted: %+v", c)
	}
}

func TestSubDelta(t *testing.T) {
	d := New()
	d.ReportCE(L2, 1, 2)
	before := d.Snapshot()
	d.ReportCE(L2, 1, 3)
	d.ReportUE(L3, 1, 1)
	delta := d.Snapshot().Sub(before)
	if delta.CE[L2] != 3 || delta.UE[L3] != 1 || delta.CE[L3] != 0 {
		t.Errorf("delta = %+v", delta)
	}
}

func TestReset(t *testing.T) {
	d := New()
	d.ReportCE(L2, 0, 5)
	d.Reset()
	if c := d.Snapshot(); c.TotalCE() != 0 {
		t.Errorf("counts after reset: %+v", c)
	}
}

func TestConcurrentReports(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.ReportCE(L2, 0, 1)
				d.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c := d.Snapshot(); c.CE[L2] != 800 {
		t.Errorf("lost concurrent reports: %d", c.CE[L2])
	}
}
