package workload

import (
	"math"
	"math/rand"
	"testing"
)

// The frozen reference: the map-based injector and every kernel as they
// were before the SDC-replay rewrite. Production replays must produce the
// same output bits under every schedule, and Reset must consume exactly
// the reference injector's draws, or the sweeps downstream would shift.

// refBitflip is the map-scheduled Bitflip the array schedule replaced.
type refBitflip struct {
	flipAt map[int]uint // call index → bit position
	calls  int
}

func newRefBitflip(rng *rand.Rand, flips int) *refBitflip {
	b := &refBitflip{flipAt: make(map[int]uint, flips)}
	for len(b.flipAt) < flips && len(b.flipAt) < minHookCalls {
		idx := rng.Intn(minHookCalls)
		if _, dup := b.flipAt[idx]; dup {
			continue
		}
		b.flipAt[idx] = uint(40 + rng.Intn(23))
	}
	return b
}

func (b *refBitflip) step() (uint, bool) {
	bit, ok := b.flipAt[b.calls]
	b.calls++
	return bit, ok
}

func (b *refBitflip) Word(x uint64) uint64 {
	if bit, ok := b.step(); ok {
		return x ^ (1 << bit)
	}
	return x
}

func (b *refBitflip) F64(x float64) float64 {
	if bit, ok := b.step(); ok {
		return math.Float64frombits(math.Float64bits(x) ^ (1 << bit))
	}
	return x
}

// referenceKernels maps each rewritten program to its frozen body; every
// other program is its own reference.
var referenceKernels = map[string]Kernel{
	"GemsFDTD":  refGemsFDTD,
	"astar":     refAstar,
	"bwaves":    refBwaves,
	"cactusADM": refCactusADM,
	"calculix":  refCalculix,
	"dealII":    refDealII,
	"gromacs":   refGromacs,
	"h264ref":   refH264ref,
	"lbm":       refLbm,
	"leslie3d":  refLeslie3d,
	"mcf":       refMcf,
	"milc":      refMilc,
	"namd":      refNamd,
	"xalancbmk": refXalancbmk,
	"zeusmp":    refZeusmp,
}

func referenceKernel(s *Spec) Kernel {
	if k, ok := referenceKernels[s.Name]; ok {
		return k
	}
	return s.Kernel
}

// replaySchedules is how many seeded 1–3-flip schedules every spec is
// replayed under against its reference.
const replaySchedules = 300

// Every spec, under every one of the seeded schedules, must produce the
// reference output through a reused, Reset injector, and leave the rng
// where the reference NewBitflip leaves it.
func TestReplayMatchesReference(t *testing.T) {
	for _, s := range All() {
		ref := referenceKernel(s)
		if got, want := s.Run(Nop{}), ref(s.Size, Nop{}); got != want {
			t.Errorf("%s golden: 0x%016x, reference 0x%016x", s.ID(), got, want)
		}
		var inj Bitflip
		bad := 0
		for seed := int64(0); seed < replaySchedules; seed++ {
			flips := 1 + int(seed%3)
			rng := rand.New(rand.NewSource(seed))
			refRng := rand.New(rand.NewSource(seed))
			inj.Reset(rng, flips)
			got, want := s.Run(&inj), ref(s.Size, newRefBitflip(refRng, flips))
			if got != want {
				bad++
				if bad <= 3 {
					t.Errorf("%s schedule %d (%d flips): 0x%016x, reference 0x%016x", s.ID(), seed, flips, got, want)
				}
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("%s schedule %d: next draw after Reset %d, after the reference %d", s.ID(), seed, a, b)
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d of %d schedules differ from the reference", s.ID(), bad, replaySchedules)
		}
	}
}

// The rewrites lean on size-derived bounds (grid sides, wrap counters),
// so every rewritten kernel is also checked at sizes 1–64, which cover
// every residue of each kernel's size modulus.
func TestRewrittenKernelsMatchReferenceAtEverySize(t *testing.T) {
	for name, ref := range referenceKernels {
		s, err := LookupName(name)
		if err != nil {
			t.Fatal(err)
		}
		for size := 1; size <= 64; size++ {
			if got, want := s.Kernel(size, Nop{}), ref(size, Nop{}); got != want {
				t.Errorf("%s size %d: 0x%016x, reference 0x%016x", name, size, got, want)
			}
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got := s.Kernel(size, NewBitflip(rng, 1+int(seed)))
				want := ref(size, newRefBitflip(rand.New(rand.NewSource(seed)), 1+int(seed)))
				if got != want {
					t.Errorf("%s size %d schedule %d: 0x%016x, reference 0x%016x", name, size, seed, got, want)
				}
			}
		}
	}
}

// kH264ref's SWAR step is exact for every byte pair in every lane.
func TestAbsDiff4Exhaustive(t *testing.T) {
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			x := [4]uint64{a, b, 255 - a, a ^ b}
			y := [4]uint64{b, a, 255 - b, b}
			var xs, ys uint64
			for lane := range x {
				xs |= x[lane] << (16 * lane)
				ys |= y[lane] << (16 * lane)
			}
			got := absDiff4(xs, ys)
			for lane := range x {
				want := max(x[lane], y[lane]) - min(x[lane], y[lane])
				if g := got >> (16 * lane) & 0xffff; g != want {
					t.Fatalf("|%d−%d| in lane %d = %d", x[lane], y[lane], lane, g)
				}
			}
		}
	}
}

// Reset must draw exactly as the reference constructor for any flip
// count, including counts that saturate the 64-call window, and a Reset
// injector must be indistinguishable from a fresh one.
func TestResetDrawsLikeReference(t *testing.T) {
	inj := NewBitflip(rand.New(rand.NewSource(99)), 64)
	for _, flips := range []int{0, 1, 2, 3, 7, 63, 64, 65, 200} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			refRng := rand.New(rand.NewSource(seed))
			inj.Reset(rng, flips)
			ref := newRefBitflip(refRng, flips)
			if inj.Flips() != len(ref.flipAt) {
				t.Fatalf("flips %d seed %d: %d scheduled, reference %d", flips, seed, inj.Flips(), len(ref.flipAt))
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("flips %d seed %d: next draw %d, reference %d", flips, seed, a, b)
			}
			for call := 0; call < 2*minHookCalls; call++ {
				x := uint64(0x0123456789abcdef) + uint64(call)
				if got, want := inj.Word(x), ref.Word(x); got != want {
					t.Fatalf("flips %d seed %d call %d: 0x%x, reference 0x%x", flips, seed, call, got, want)
				}
			}
		}
	}
}

// A sweep resets one injector per SDC cell: Reset plus a full kernel's
// worth of hook calls (the longest kernel makes about 310) must not
// allocate.
func TestReplayInjectorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inj := new(Bitflip)
	var hooks Injector = inj
	var w uint64
	var f float64
	allocs := testing.AllocsPerRun(200, func() {
		inj.Reset(rng, 3)
		for i := 0; i < 160; i++ {
			w = hooks.Word(w + uint64(i))
			f = hooks.F64(f + float64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and 320 hook calls: %v allocations, want 0", allocs)
	}
}

// kXalancbmk rebuilds its DOM in arrays on each call, so a replay
// allocates nothing beyond what the injector does (and a reset one does
// not).
func TestXalancbmkReplayAllocs(t *testing.T) {
	s, err := LookupName("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var inj Bitflip
	allocs := testing.AllocsPerRun(100, func() {
		inj.Reset(rng, 2)
		s.Run(&inj)
	})
	if allocs != 0 {
		t.Errorf("xalancbmk replay: %v allocations, want 0", allocs)
	}
}

// refAstar is kAstar before its rewrite.
func refAstar(size int, inj Injector) uint64 {
	const n = 16
	rng := newXorshift(0xa57a)
	weight := make([]uint64, n*n)
	for i := range weight {
		weight[i] = uint64(rng.intn(9) + 1)
	}
	h := uint64(0x1a)
	iters := 64 + size/8
	for it := 0; it < iters; it++ {
		start := (it * 7) % (n * n)
		goal := (it*13 + n) % (n * n)
		gx, gy := goal/n, goal%n
		dist := make([]uint64, n*n)
		for i := range dist {
			dist[i] = 1 << 40
		}
		dist[start] = 0
		// Greedy best-first expansion, bounded steps.
		curNode := start
		for step := 0; step < 40 && curNode != goal; step++ {
			x, y := curNode/n, curNode%n
			bestScore := uint64(1 << 62)
			bestNext := curNode
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= n || ny >= n {
					continue
				}
				nn := nx*n + ny
				g := dist[curNode] + weight[nn]
				if g < dist[nn] {
					dist[nn] = g
				}
				manh := uint64(refAbs(nx-gx) + refAbs(ny-gy))
				if score := g + 2*manh; score < bestScore {
					bestScore, bestNext = score, nn
				}
			}
			curNode = bestNext
		}
		v := inj.Word(dist[curNode] + uint64(curNode))
		h = fold(h, v)
	}
	return h
}

// refBwaves is kBwaves before its rewrite.
func refBwaves(size int, inj Injector) uint64 {
	n := 8 + size%8
	g := make([]float64, n*n*n)
	rng := newXorshift(0xb3a7e5)
	for i := range g {
		g[i] = rng.float()
	}
	at := func(x, y, z int) float64 {
		return g[((x+n)%n)*n*n+((y+n)%n)*n+(z+n)%n]
	}
	h := uint64(0x1)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		x, y, z := it%n, (it/n)%n, (it/(n*n))%n
		c := at(x, y, z)
		flux := 0.125*(at(x+1, y, z)+at(x-1, y, z)+at(x, y+1, z)+
			at(x, y-1, z)+at(x, y, z+1)+at(x, y, z-1)-6*c) +
			0.02*c*c/(1+math.Abs(c))
		v := inj.F64(c + flux)
		g[x*n*n+y*n+z] = v
		h = foldF64(h, v)
	}
	return h
}

// refCactusADM is kCactusADM before its rewrite.
func refCactusADM(size int, inj Injector) uint64 {
	n := 10 + size%6
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	rng := newXorshift(0xcac705)
	for i := range a {
		a[i] = rng.float() * 2
		b[i] = rng.float()
	}
	h := uint64(0x2)
	iters := 64 + size/3
	for it := 0; it < iters; it++ {
		i := (it*7 + 3) % (n * n)
		x, y := i/n, i%n
		lap := a[((x+1)%n)*n+y] + a[((x+n-1)%n)*n+y] +
			a[x*n+(y+1)%n] + a[x*n+(y+n-1)%n] - 4*a[i]
		src := math.Sin(b[i]) * math.Cos(a[i]*0.5)
		v := inj.F64(a[i] + 0.1*lap + 0.01*src)
		a[i] = v
		b[i] += 0.001 * v
		h = foldF64(h, v)
	}
	return h
}

// refCalculix is kCalculix before its rewrite.
func refCalculix(size int, inj Injector) uint64 {
	n := 12 + size%6
	lower := make([]float64, n*n)
	rng := newXorshift(0xca1c)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			lower[i*n+j] = rng.float() * 0.5
		}
		lower[i*n+i] += 1.5
	}
	x := make([]float64, n)
	h := uint64(0xc)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		// One forward-substitution row per iteration, cyclically.
		i := it % n
		s := 1 + float64(it%5)*0.1
		for j := 0; j < i; j++ {
			s -= lower[i*n+j] * x[j]
		}
		v := inj.F64(s / lower[i*n+i])
		x[i] = v
		h = foldF64(h, v)
	}
	return h
}

// refDealII is kDealII before its rewrite.
func refDealII(size int, inj Injector) uint64 {
	const dim = 4
	n := 12 + size%8
	diag := make([]float64, n)
	off := make([]float64, n)
	rhs := make([]float64, n)
	rng := newXorshift(0xdea111)
	for e := 0; e < n; e++ {
		// Assemble a dim×dim element matrix and lump it.
		var k [dim][dim]float64
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				k[i][j] = rng.float() - 0.5
			}
		}
		for i := 0; i < dim; i++ {
			diag[e] += math.Abs(k[i][i]) + 1
			for j := 0; j < dim; j++ {
				if i != j {
					off[e] += k[i][j] * 0.1
				}
			}
		}
		rhs[e] = rng.float()
	}
	x := make([]float64, n)
	h := uint64(0x3)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		i := it % n
		neigh := x[(i+1)%n] + x[(i+n-1)%n]
		v := inj.F64((rhs[i] - off[i]*neigh) / diag[i])
		x[i] = 0.5*x[i] + 0.5*v
		h = foldF64(h, v)
	}
	return h
}

// refGemsFDTD is kGemsFDTD before its rewrite.
func refGemsFDTD(size int, inj Injector) uint64 {
	n := 10 + size%6
	ez := make([]float64, n*n)
	hx := make([]float64, n*n)
	hy := make([]float64, n*n)
	rng := newXorshift(0x6e27)
	for i := range ez {
		ez[i] = rng.float() - 0.5
	}
	h := uint64(0xd)
	iters := 64 + size/3
	for it := 0; it < iters; it++ {
		i := (it*3 + 2) % (n * n)
		x, y := i/n, i%n
		curlH := hy[x*n+(y+1)%n] - hy[i] - (hx[((x+1)%n)*n+y] - hx[i])
		v := inj.F64(ez[i] + 0.5*curlH)
		ez[i] = v
		hx[i] -= 0.5 * (ez[x*n+(y+1)%n] - v)
		hy[i] += 0.5 * (ez[((x+1)%n)*n+y] - v)
		h = foldF64(h, v)
	}
	return h
}

// refGromacs is kGromacs before its rewrite.
func refGromacs(size int, inj Injector) uint64 {
	n := 16 + size%16
	px := make([]float64, n)
	py := make([]float64, n)
	vx := make([]float64, n)
	vy := make([]float64, n)
	rng := newXorshift(0x960ac5)
	for i := 0; i < n; i++ {
		px[i] = rng.float() * 10
		py[i] = rng.float() * 10
	}
	h := uint64(0x4)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		i := it % n
		j := (i + 1 + it%3) % n
		dx, dy := px[j]-px[i], py[j]-py[i]
		r2 := dx*dx + dy*dy + 0.01
		inv6 := 1 / (r2 * r2 * r2)
		f := (12*inv6*inv6 - 6*inv6) / r2
		fx := inj.F64(f * dx)
		fy := f * dy
		vx[i] += 0.001 * fx
		vy[i] += 0.001 * fy
		px[i] += vx[i] * 0.001
		py[i] += vy[i] * 0.001
		h = foldF64(h, fx)
	}
	return h
}

// refH264ref is kH264ref before its rewrite.
func refH264ref(size int, inj Injector) uint64 {
	const mb = 8
	rng := newXorshift(0x264)
	ref := make([]uint8, 64*64)
	curFrame := make([]uint8, 64*64)
	for i := range ref {
		ref[i] = uint8(rng.intn(256))
		curFrame[i] = uint8(int(ref[i]) + rng.intn(9) - 4)
	}
	h := uint64(0x18)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		bx := (it * 3) % (64 - mb)
		by := (it * 5) % (64 - mb)
		bestSAD := uint64(1 << 30)
		for _, off := range [5][2]int{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			rx, ry := bx+off[0], by+off[1]
			if rx < 0 || ry < 0 || rx >= 64-mb || ry >= 64-mb {
				continue
			}
			sad := uint64(0)
			for y := 0; y < mb; y++ {
				for x := 0; x < mb; x++ {
					a := int(curFrame[(by+y)*64+bx+x])
					b := int(ref[(ry+y)*64+rx+x])
					if a > b {
						sad += uint64(a - b)
					} else {
						sad += uint64(b - a)
					}
				}
			}
			if sad < bestSAD {
				bestSAD = sad
			}
		}
		v := inj.Word(bestSAD)
		h = fold(h, v)
	}
	return h
}

// refLbm is kLbm before its rewrite.
func refLbm(size int, inj Injector) uint64 {
	n := 10 + size%6
	const q = 5
	f := make([]float64, n*n*q)
	rng := newXorshift(0x1b30)
	for i := range f {
		f[i] = 0.2 + 0.01*(rng.float()-0.5)
	}
	h := uint64(0xe)
	const omega = 1.7
	iters := 64 + size/3
	for it := 0; it < iters; it++ {
		cell := (it*7 + 1) % (n * n)
		base := cell * q
		rho := 0.0
		for d := 0; d < q; d++ {
			rho += f[base+d]
		}
		eq := rho / q
		v := 0.0
		for d := 0; d < q; d++ {
			f[base+d] += omega * (eq - f[base+d])
			v += f[base+d] * float64(d+1)
		}
		v = inj.F64(v)
		f[base] = v / 15
		h = foldF64(h, v)
	}
	return h
}

// refLeslie3d is kLeslie3d before its rewrite.
func refLeslie3d(size int, inj Injector) uint64 {
	n := 9 + size%7
	u := make([]float64, n*n)
	rng := newXorshift(0x1e511e)
	for i := range u {
		u[i] = rng.float()*2 - 1
	}
	h := uint64(0x5)
	energy := 0.0
	iters := 64 + size/3
	for it := 0; it < iters; it++ {
		i := (it*5 + 1) % (n * n)
		x, y := i/n, i%n
		up := u[((x+n-1)%n)*n+y]
		dn := u[((x+1)%n)*n+y]
		flux := up
		if u[i] < 0 {
			flux = dn
		}
		v := inj.F64(u[i] - 0.2*(u[i]-flux) + 0.05*u[x*n+(y+1)%n])
		u[i] = v
		energy += v * v
		h = foldF64(h, v)
	}
	return foldF64(h, energy)
}

// refMcf is kMcf before its rewrite.
func refMcf(size int, inj Injector) uint64 {
	n := 32 + size%32
	const deg = 4
	// Deterministic sparse graph.
	rng := newXorshift(0x3cf)
	head := make([]int, n*deg)
	cost := make([]uint64, n*deg)
	for i := range head {
		head[i] = rng.intn(n)
		cost[i] = uint64(rng.intn(100) + 1)
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = 1 << 40
	}
	dist[0] = 0
	h := uint64(0x10)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		u := it % n
		for e := 0; e < deg; e++ {
			v := head[u*deg+e]
			nd := dist[u] + cost[u*deg+e]
			if nd < dist[v] {
				dist[v] = nd
			}
		}
		w := inj.Word(dist[u])
		dist[u] = w
		h = fold(h, w)
	}
	return h
}

// refMilc is kMilc before its rewrite.
func refMilc(size int, inj Injector) uint64 {
	type c128 struct{ re, im float64 }
	mul := func(a, b [3][3]c128) [3][3]c128 {
		var out [3][3]c128
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var re, im float64
				for k := 0; k < 3; k++ {
					re += a[i][k].re*b[k][j].re - a[i][k].im*b[k][j].im
					im += a[i][k].re*b[k][j].im + a[i][k].im*b[k][j].re
				}
				out[i][j] = c128{re * 0.5, im * 0.5}
			}
		}
		return out
	}
	rng := newXorshift(0x313c)
	var links [8][3][3]c128
	for l := range links {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				links[l][i][j] = c128{rng.float() - 0.5, rng.float() - 0.5}
			}
		}
	}
	acc := links[0]
	h := uint64(0x6)
	iters := 64 + size/6
	for it := 0; it < iters; it++ {
		acc = mul(acc, links[it%8])
		tr := inj.F64(acc[0][0].re + acc[1][1].re + acc[2][2].re)
		acc[0][0].re = tr * 0.9
		h = foldF64(h, tr)
	}
	return h
}

// refNamd is kNamd before its rewrite.
func refNamd(size int, inj Injector) uint64 {
	n := 20 + size%12
	q := make([]float64, n)
	p := make([]float64, n)
	rng := newXorshift(0x4a3d)
	for i := 0; i < n; i++ {
		q[i] = rng.float() - 0.5
		p[i] = rng.float() * 5
	}
	h := uint64(0x7)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		i, j := it%n, (it*3+1)%n
		if i == j {
			j = (j + 1) % n
		}
		r := math.Abs(p[i]-p[j]) + 0.05
		sw := 1 / (1 + r*r)
		e := inj.F64(q[i] * q[j] / r * sw)
		p[i] += e * 0.01
		h = foldF64(h, e)
	}
	return h
}

// refZeusmp is kZeusmp before its rewrite.
func refZeusmp(size int, inj Injector) uint64 {
	n := 10 + size%6
	d := make([]float64, n*n) // density
	bf := make([]float64, n*n)
	rng := newXorshift(0x2e05)
	for i := range d {
		d[i] = 1 + rng.float()
		bf[i] = rng.float() * 0.1
	}
	h := uint64(0x9)
	iters := 64 + size/3
	for it := 0; it < iters; it++ {
		i := (it*11 + 5) % (n * n)
		x, y := i/n, i%n
		right := d[x*n+(y+1)%n]
		if it%2 == 0 { // hydro sub-step
			v := inj.F64(d[i] + 0.1*(right-d[i]) - 0.05*bf[i]*bf[i])
			d[i] = math.Max(v, 0.01)
			h = foldF64(h, v)
		} else { // magnetic sub-step
			v := inj.F64(bf[i] + 0.02*(d[((x+1)%n)*n+y]-d[i]))
			bf[i] = v
			h = foldF64(h, v)
		}
	}
	return h
}

// refXalancbmk is kXalancbmk before its rewrite: a child slice per node.
func refXalancbmk(size int, inj Injector) uint64 {
	type node struct {
		tag      int
		children []int
	}
	rng := newXorshift(0xa1a)
	nodes := make([]node, 128)
	for i := 1; i < len(nodes); i++ {
		parent := rng.intn(i)
		nodes[parent].children = append(nodes[parent].children, i)
		nodes[i].tag = rng.intn(12)
	}
	h := uint64(0x1b)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		cur := it % len(nodes)
		acc := uint64(0xcbf29ce484222325)
		for depth := 0; depth < 12; depth++ {
			nd := nodes[cur]
			acc = (acc ^ uint64(nd.tag)) * 0x100000001b3
			if len(nd.children) == 0 {
				break
			}
			cur = nd.children[(it+depth)%len(nd.children)]
		}
		v := inj.Word(acc)
		h = fold(h, v)
	}
	return h
}

// refAbs is the branchy |x| refAstar used.
func refAbs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
