// Package randsrc builds the random streams of every campaign, die and
// board. New(seed) yields exactly the stream of
// rand.New(rand.NewSource(seed)), so every seeded outcome stays what it
// was, but it seeds about three times faster and its source fits a Go
// size class exactly.
//
// math/rand seeds its 607-word additive lagged Fibonacci source by
// walking the Park–Miller LCG x ← 48271·x mod (2³¹−1) through 1,841
// dependent steps, each with a division, and XORs every three steps into
// a word of its cooked table. Word i takes steps 21+3i, 22+3i and 23+3i,
// so New starts three chains at steps 21, 22 and 23, advances each by
// the multiplier's cube, and reduces modulo the Mersenne prime with a
// shift and an add: the chains are independent, so their multiplies
// overlap. The cooked table is not copied in. It is recovered once from
// math/rand itself, by undoing the first 607 draws of rand.NewSource(1).
package randsrc

import (
	"math/rand"
	"sync"
)

const (
	length = 607       // words of lagged Fibonacci state
	lag    = 273       // distance between the tap and the feed
	prime  = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	mult   = 48271     // the seeding LCG's multiplier
	zero   = 89482311  // the seed math/rand substitutes for 0
	skip   = 21        // LCG steps up to word 0's first
	mask63 = 1<<63 - 1 // Int63's mask
)

// cube and first are the LCG's jump multipliers: three steps, and the
// skip steps before word 0.
var (
	cube  = pow(mult, 3)
	first = pow(mult, skip)
)

// New returns a stream that draws exactly what
// rand.New(rand.NewSource(seed)) draws, including after a reseed through
// (*rand.Rand).Seed. Like math/rand's, the stream is not safe for
// concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's additive lagged Fibonacci generator with its
// cursors narrowed to int32: 4,864 bytes, exactly a Go size class, where
// math/rand's 4,872-byte source is rounded up to 5,376.
type source struct {
	vec       [length]int64
	tap, feed int32
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - lag
	fill(&s.vec, seed, cooked.get())
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & mask63)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill writes seed's state words into vec: the three LCG steps of each
// word, shifted and XORed together, XORed with table.
func fill(vec *[length]int64, seed int64, table *[length]int64) {
	seed %= prime
	if seed < 0 {
		seed += prime
	}
	if seed == 0 {
		seed = zero
	}
	a := mulmod(uint64(seed), first)
	b := mulmod(a, mult)
	c := mulmod(b, mult)
	for i := range vec {
		vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ table[i]
		a = mulmod(a, cube)
		b = mulmod(b, cube)
		c = mulmod(c, cube)
	}
}

// mulmod returns x·y mod (2³¹−1) for x, y < 2³¹. Since 2³¹ ≡ 1, the
// product's high and low 31 bits add to a value below twice the prime
// that is congruent to it.
func mulmod(x, y uint64) uint64 {
	p := x * y
	p = p&prime + p>>31
	if p >= prime {
		p -= prime
	}
	return p
}

// pow returns x^n mod (2³¹−1).
func pow(x, n uint64) uint64 {
	r := uint64(1)
	for ; n > 0; n-- {
		r = mulmod(r, x)
	}
	return r
}

// cookedTable holds math/rand's cooked table, recovered on first use.
type cookedTable struct {
	once  sync.Once
	words [length]int64
}

var cooked cookedTable

// get returns the table, recovering it on the first call.
func (t *cookedTable) get() *[length]int64 {
	t.once.Do(t.unwind)
	return &t.words
}

// unwind draws rand.NewSource(1) through one full turn of its state:
// each draw overwrites the word under the feed cursor, and the feed
// visits every word once, so afterwards the state is the draws, each at
// its feed position. Running the generator backwards from there — the
// cursors are back where they started — subtracts each draw's tap word
// again, which leaves the seeded state, the cooked table XORed with seed
// 1's LCG words.
func (t *cookedTable) unwind() {
	src := rand.NewSource(1).(rand.Source64)
	var state [length]int64
	feed := length - lag
	for k := 0; k < length; k++ {
		if feed--; feed < 0 {
			feed += length
		}
		state[feed] = int64(src.Uint64())
	}
	tap := 0 // feed is back at length - lag
	for k := 0; k < length; k++ {
		state[feed] -= state[tap]
		if tap++; tap == length {
			tap = 0
		}
		if feed++; feed == length {
			feed = 0
		}
	}
	fill(&t.words, 1, &state)
}
