package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: xvolt
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkKernelRun 	       1	     13626 ns/op	       0 B/op	       0 allocs/op
BenchmarkMachineRun-4 	       1	      2526 ns/op	      48 B/op	       1 allocs/op
BenchmarkFigure4Parallel 	       1	   6705612 ns/op	         27.80 speedup-x	         1.000 workers	 5900000 B/op	   12814 allocs/op
PASS
ok  	xvolt	2.031s
`

func TestParseBench(t *testing.T) {
	entries, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	k := entries[0]
	if k.Name != "BenchmarkKernelRun" || k.NsPerOp != 13626 || k.AllocsPerOp == nil || *k.AllocsPerOp != 0 {
		t.Errorf("kernel entry = %+v", k)
	}
	// The -P GOMAXPROCS suffix is stripped so names match across hosts.
	if entries[1].Name != "BenchmarkMachineRun" {
		t.Errorf("suffixed name kept: %q", entries[1].Name)
	}
	p := entries[2]
	if p.Metrics["speedup-x"] != 27.8 || p.AllocsPerOp == nil || *p.AllocsPerOp != 12814 {
		t.Errorf("parallel entry = %+v", p)
	}
}

func TestGate(t *testing.T) {
	base := &baselineFile{Benchmarks: []benchEntry{
		{Name: "BenchmarkA", NsPerOp: 100_000_000},
		{Name: "BenchmarkB", NsPerOp: 1000},
	}}
	// Within factor, plus a sub-slack blip on a tiny benchmark, plus a
	// benchmark the baseline has never seen: all pass.
	ok := []benchEntry{
		{Name: "BenchmarkA", NsPerOp: 140_000_000},
		{Name: "BenchmarkB", NsPerOp: 4_000_000}, // huge relative, absorbed by slack
		{Name: "BenchmarkNew", NsPerOp: 5},
	}
	if err := gate(base, ok, 1.5, 5*time.Millisecond); err != nil {
		t.Fatalf("tolerant run failed: %v", err)
	}
	// Past factor and slack: the gate must fail and name the benchmark.
	bad := []benchEntry{
		{Name: "BenchmarkA", NsPerOp: 160_000_000},
		{Name: "BenchmarkB", NsPerOp: 1000},
	}
	err := gate(base, bad, 1.5, 5*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("regression not caught: %v", err)
	}
}

// A baseline benchmark absent from the run fails the gate by name, even
// when everything that did run is within tolerance.
func TestGateFailsOnMissing(t *testing.T) {
	base := &baselineFile{Benchmarks: []benchEntry{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 1000},
	}}
	err := gate(base, []benchEntry{{Name: "BenchmarkA", NsPerOp: 1000}}, 1.5, 5*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGone") || strings.Contains(err.Error(), "BenchmarkA:") {
		t.Fatalf("missing benchmark not caught by name: %v", err)
	}
}

func TestUpdateRoundTrips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	seed := `{"schema":1,"command":"go test -bench","environment":{"cpus":1},"benchmarks":[]}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, in, 1.5, 5*time.Millisecond, true); err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != 2 || len(b.Benchmarks) != 3 || b.Command != "go test -bench" {
		t.Fatalf("rewritten baseline = %+v", b)
	}
	var env struct {
		CPUs int `json:"cpus"`
	}
	if err := json.Unmarshal(b.Environment, &env); err != nil || env.CPUs != 1 {
		t.Errorf("environment not preserved: %s", b.Environment)
	}
	// The freshly written baseline gates its own input cleanly.
	if err := run(path, in, 1.5, 5*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
}
