// Package workload provides the benchmark programs the characterization
// campaigns execute: small, deterministic compute kernels named after the
// SPEC CPU2006 programs used in the paper, each with a calibrated
// microarchitectural stress profile.
//
// A kernel really computes: it produces a 64-bit output checksum, and every
// outer-loop intermediate passes through an Injector so that undervolting
// faults corrupt genuine program state. The golden checksum — obtained at
// nominal voltage with the Nop injector — is what the framework compares
// against to detect silent data corruptions, exactly as the paper's
// framework compares program output against a known-good output (§2.2).
//
// The stress Profile drives both the silicon failure model (internal/
// silicon) and the performance-counter model (internal/counters); Score is
// the calibrated total critical-path stress, whose counter-invisible part
// (Idio) bounds how well Vmin can be predicted from counters (§4.3.1).
package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"xvolt/internal/silicon"
)

// Kernel is a benchmark body: it performs `size` units of deterministic
// work, threading intermediates through inj, and returns an output
// checksum. Kernels must call the injector at least 64 times for any
// size ≥ 1 (enforced by tests) so scheduled bitflips always land.
type Kernel func(size int, inj Injector) uint64

// Spec is one (program, input dataset) pair of the benchmark suite.
type Spec struct {
	// Name is the SPEC-style program name, e.g. "bwaves".
	Name string
	// Input names the dataset, e.g. "ref" or "train".
	Input string
	// Size is the kernel work parameter for this input.
	Size int
	// Profile is the counter-visible microarchitectural stress signature.
	Profile silicon.StressProfile
	// Score is the calibrated total critical-path stress that positions
	// the program's Vmin on the silicon model's voltage axis.
	Score float64
	// Kernel is the program body. A fold-only program's kernel folds
	// the values its body emits through the injector.
	Kernel Kernel

	fold *foldProgram // a fold-only program's body; nil otherwise

	goldenOnce sync.Once
	golden     uint64
}

// ID returns the unique "name/input" identifier.
func (s *Spec) ID() string { return s.Name + "/" + s.Input }

// Idio is the counter-invisible component of the program's stress score —
// the part no regression over performance counters can recover.
func (s *Spec) Idio() float64 { return s.Score - s.Profile.Visible() }

// Run executes the kernel under the given injector.
func (s *Spec) Run(inj Injector) uint64 { return s.Kernel(s.Size, inj) }

// Golden returns the fault-free output checksum, computed at most once
// per Spec. The memo is the Spec's own: a kernel value does not identify
// its computation (every closure built from one function literal shares
// its code), so no golden is shared between Specs.
func (s *Spec) Golden() uint64 {
	s.goldenOnce.Do(func() { s.golden = s.Run(Nop{}) })
	return s.golden
}

// A foldProgram is a program whose hook-site values feed only its output
// checksum: no site's value reaches a later site's. Its body emits the
// values and never sees an injector; the fold passes each through the
// injector and chains it into the checksum, so a fault at one site
// changes that site's fold step and nothing the body computes. The
// values of one run therefore score every fault schedule of that run
// (Replay). The program's kernel calls its body directly — through the
// sites function value the buffer would escape to the heap — into a
// stack buffer of siteBufLen values, and returns their checksum.
type foldProgram struct {
	// seed is the checksum's initial value.
	seed uint64
	// float marks float sites: each value is a float64's bit pattern,
	// passed through Injector.F64 and folded by foldF64. Word sites pass
	// through Injector.Word and are folded by fold.
	float bool
	// sites appends one run's hook-site values to dst, in call order,
	// and returns the extended slice.
	sites func(size int, dst []uint64) []uint64
}

// siteBufLen sizes a fold-only kernel's stack buffer: the suite's
// longest run has 291 sites. A longer run spills to the heap.
const siteBufLen = 320

// checksum is one run's output under inj: the run's site values, each
// passed through inj in call order and folded into the checksum.
func (p *foldProgram) checksum(sites []uint64, inj Injector) uint64 {
	h := p.seed
	if p.float {
		for _, x := range sites {
			h = foldF64(h, inj.F64(math.Float64frombits(x)))
		}
		return h
	}
	for _, x := range sites {
		h = fold(h, inj.Word(x))
	}
	return h
}

// Replay scores the SDC cells of one sweep: each cell's output under its
// fault schedule, to compare with the golden. A fold-only program runs
// its body once per sweep, at the first cell, and scores every cell by
// folding that record through the cell's schedule — at most a few
// hundred mix64 steps instead of a run. Every other program runs its
// kernel per cell. Each schedule is still evaluated exactly: the record
// holds only values no fault can reach. A Replay is reused across
// sweeps; Begin drops the previous sweep's record.
type Replay struct {
	spec   *Spec
	record []uint64 // the sweep's hook-site values; empty until recorded
}

// Begin starts a sweep of spec.
func (r *Replay) Begin(spec *Spec) { r.spec, r.record = spec, r.record[:0] }

// Score returns the output of the sweep's spec under inj's schedule.
//
//xvolt:hotpath once per SDC cell of every sweep
func (r *Replay) Score(inj *Bitflip) uint64 {
	p := r.spec.fold
	if p == nil {
		return r.spec.Run(inj)
	}
	if len(r.record) == 0 {
		r.record = p.sites(r.spec.Size, r.record)
	}
	return inj.foldRecord(p, r.record)
}

// registry maps ID → Spec for lookup. Populated in suite.go.
var registry = map[string]*Spec{}

func register(s *Spec) *Spec {
	if _, dup := registry[s.ID()]; dup {
		panic(fmt.Sprintf("workload: duplicate spec %s", s.ID()))
	}
	registry[s.ID()] = s
	return s
}

// Lookup finds a spec by "name/input" ID.
func Lookup(id string) (*Spec, error) {
	s, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", id)
	}
	return s, nil
}

// LookupName returns the reference-input spec of a program name.
func LookupName(name string) (*Spec, error) {
	if s, ok := registry[name+"/ref"]; ok {
		return s, nil
	}
	// Fall back to any input of that name (deterministic order).
	var ids []string
	for id, s := range registry {
		if s.Name == name {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("workload: unknown program %q", name)
	}
	sort.Strings(ids)
	return registry[ids[0]], nil
}

// All returns every registered spec sorted by ID.
func All() []*Spec {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Spec, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// --- deterministic data generation and checksum helpers ---

// mix64 is the splitmix64 finalizer: a fast, full-avalanche bit mixer used
// to fold kernel outputs into checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fold chains a value into a running checksum.
func fold(h, x uint64) uint64 { return mix64(h ^ x) }

// Fold chains a value into a running checksum — exported for kernels
// defined outside this package (e.g. the §3.4 self-tests).
func Fold(h, x uint64) uint64 { return fold(h, x) }

// FoldF64 chains a float into a running checksum (NaN-canonicalizing),
// exported for external kernels.
func FoldF64(h uint64, x float64) uint64 { return foldF64(h, x) }

// foldF64 folds a float (by bit pattern) into a running checksum. NaNs are
// canonicalized so corrupted-but-NaN values still checksum deterministically.
func foldF64(h uint64, x float64) uint64 {
	b := math.Float64bits(x)
	if x != x { // NaN
		b = 0x7ff8000000000000
	}
	return fold(h, b)
}

// flipF64Bit flips one bit of x's IEEE-754 representation.
func flipF64Bit(x float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (1 << bit))
}

// xorshift is the tiny deterministic PRNG kernels use to generate their
// input data (independent of math/rand so golden outputs never change).
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float returns a float in [0, 1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// intn returns an int in [0, n).
func (x *xorshift) intn(n int) int {
	return int(x.next() % uint64(n))
}
