// Fixture dependency for seedflow's cross-package fact passing: NewRig
// funnels its parameter into rand.NewSource, so it becomes a seed sink
// and callers in dependent packages are vetted too.
package seedflowdep

import "math/rand"

// NewRig builds a deterministic stream from s (a seed by contract).
func NewRig(s int64) *rand.Rand {
	return rand.New(rand.NewSource(s))
}

// DeriveSeed mixes a stage tag into a base seed.
func DeriveSeed(seed int64, stage int64) int64 {
	return seed ^ (stage * int64(0x9e3779b97f4a7c15&0x7fffffffffffffff))
}

// NewStream builds a stream from s without calling rand.NewSource, so
// only a configured SeedSinks entry makes it a sink.
func NewStream(s int64) *rand.Rand {
	return rand.New(&counter{n: s})
}

// counter is a stand-in source.
type counter struct{ n int64 }

func (c *counter) Int63() int64 { c.n++; return c.n & (1<<63 - 1) }

func (c *counter) Seed(s int64) { c.n = s }
