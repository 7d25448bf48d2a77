package randsrc

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// oracleSeeds are the seeds whose reduction math/rand special-cases or
// wraps: zero and its substitute, the modulus and its multiples, and the
// int64 extremes.
var oracleSeeds = []int64{
	0, 1, -1, prime, -prime, 2 * prime, -2 * prime, 3 * prime,
	prime * (1 << 32), -prime * (1 << 32), zero, -zero,
	prime - 1, prime + 1, math.MinInt64, math.MaxInt64,
	math.MinInt64 + 1, math.MaxInt64 - prime,
}

// drawScript is the number of mixed draws compared per seed, every kind
// the repository makes: over four turns of the 607-word state, so the
// cursors wrap several times.
const drawScript = 2600

// compareStreams draws the same script from both streams and reports the
// first draw that differs. Integers compare exactly, floats bit for bit.
func compareStreams(t *testing.T, seed int64, got, want *rand.Rand, draws int) {
	t.Helper()
	bits := math.Float64bits
	for i := 0; i < draws; {
		var g, w uint64
		switch i % 9 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2:
			g, w = uint64(got.Intn(1000)), uint64(want.Intn(1000))
		case 3:
			g, w = bits(got.Float64()), bits(want.Float64())
		case 4:
			g, w = bits(got.NormFloat64()), bits(want.NormFloat64())
		case 5:
			g, w = bits(got.ExpFloat64()), bits(want.ExpFloat64())
		case 6:
			gp, wp := got.Perm(17), want.Perm(17)
			for j := range gp {
				if gp[j] != wp[j] {
					t.Fatalf("seed %d draw %d: Perm differs: %v, want %v", seed, i, gp, wp)
				}
			}
			i += 17
			continue
		case 7:
			g, w = uint64(got.Int31n(7)), uint64(want.Int31n(7))
		case 8:
			g, w = uint64(got.Uint32()), uint64(want.Uint32())
		}
		if g != w {
			t.Fatalf("seed %d draw %d (kind %d): got %#x, want %#x", seed, i, i%9, g, w)
		}
		i++
	}
	// Most draws read only a word's high bits. A full turn of raw words
	// is the whole state (the map from state to the next turn's words is
	// invertible), so any difference left in it shows here.
	for i := 0; i < length; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d word %d after the script: got %#x, want %#x", seed, i, g, w)
		}
	}
}

// TestNewMatchesMathRand is the oracle: every stream New builds is the
// stream math/rand builds for the same seed.
func TestNewMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), oracleSeeds...)
	pick := rand.New(rand.NewSource(20261019))
	for i := 0; i < 1200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		compareStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), drawScript)
	}
}

// TestReseedMidStream reseeds both streams through (*rand.Rand).Seed part
// way through a turn of the state, where the cursors are not at rest.
func TestReseedMidStream(t *testing.T) {
	got, want := New(7), rand.New(rand.NewSource(7))
	compareStreams(t, 7, got, want, 333)
	for _, seed := range []int64{0, 7, -prime, math.MaxInt64, 123456789} {
		got.Seed(seed)
		want.Seed(seed)
		compareStreams(t, seed, got, want, 1000)
	}
}

// TestFirstUseConcurrent recovers a fresh cooked table from many
// goroutines at once and builds streams concurrently; under -race it
// proves the one-time recovery is published safely.
func TestFirstUseConcurrent(t *testing.T) {
	var fresh cookedTable
	var wg sync.WaitGroup
	tables := make([]*[length]int64, 8)
	streams := make([]*rand.Rand, 8)
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g] = fresh.get()
			streams[g] = New(int64(g))
		}(g)
	}
	wg.Wait()
	want := cooked.get()
	for g, tab := range tables {
		if *tab != *want {
			t.Fatalf("goroutine %d recovered a different cooked table", g)
		}
		compareStreams(t, int64(g), streams[g], rand.New(rand.NewSource(int64(g))), length)
	}
}

// TestSourceFillsSizeClass pins the layout the package exists for: the
// source is exactly a 4,864-byte allocation, and New makes two
// allocations, the source and its Rand.
func TestSourceFillsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(source{}); n != 4864 {
		t.Errorf("source is %d bytes, want 4864", n)
	}
	if n := testing.AllocsPerRun(100, func() { New(42) }); n != 2 {
		t.Errorf("New allocates %v times, want 2", n)
	}
}

// FuzzNewMatchesMathRand extends the oracle to any seed.
func FuzzNewMatchesMathRand(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), drawScript)
	})
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = New(int64(i))
	}
}

// BenchmarkMathRandNew is the constructor New replaces.
func BenchmarkMathRandNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = rand.New(rand.NewSource(int64(i)))
	}
}

var sink *rand.Rand
