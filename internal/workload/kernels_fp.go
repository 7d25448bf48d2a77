// Floating-point kernels. Each function is a miniature, deterministic
// stand-in for the SPEC CPU2006 program it is named after, exercising a
// similar computational pattern (stencils, molecular dynamics, lattice
// field theory, linear programming, FEM, ray tracing, …). The absolute
// performance of these kernels is irrelevant to the study — what matters is
// that they compute real values whose corruption is observable, and that
// their stress profiles differ the way the original programs' do.
//
// Their speed still matters to the framework: every SDC cell of a sweep
// replays one, unless the program is fold-only (foldProgram), whose body
// runs once per sweep. A kernel may be rewritten for speed only if its
// output stays bit-identical for every size and every fault schedule:
// integer code only where the new form is provably identical,
// floating-point operations never reassociated and never fused (no
// math.FMA), and no input table kept beyond a call. reference_test.go
// holds every kernel as it was before such a rewrite and pins the two
// together.
package workload

import "math"

// kBwaves models the blast-wave CFD solver: a 3-D 7-point stencil sweep
// over a cubic grid with non-linear flux terms.
func kBwaves(size int, inj Injector) uint64 {
	n := 8 + size%8
	g := make([]float64, n*n*n, 15*15*15) // n ≤ 15: on the stack
	rng := newXorshift(0xb3a7e5)
	for i := range g {
		g[i] = rng.float()
	}
	at := func(x, y, z int) float64 {
		return g[x*n*n+y*n+z]
	}
	h := uint64(0x1)
	iters := 64 + size/4
	// (x, y, z) walks the grid as (it%n, (it/n)%n, (it/(n*n))%n).
	x, y, z := 0, 0, 0
	for it := 0; it < iters; it++ {
		xp, xm := wrapUp(x+1, n), wrapDown(x-1, n)
		yp, ym := wrapUp(y+1, n), wrapDown(y-1, n)
		zp, zm := wrapUp(z+1, n), wrapDown(z-1, n)
		c := at(x, y, z)
		flux := 0.125*(at(xp, y, z)+at(xm, y, z)+at(x, yp, z)+
			at(x, ym, z)+at(x, y, zp)+at(x, y, zm)-6*c) +
			0.02*c*c/(1+math.Abs(c))
		v := inj.F64(c + flux)
		g[x*n*n+y*n+z] = v
		h = foldF64(h, v)
		if x++; x == n {
			x = 0
			if y++; y == n {
				y = 0
				if z++; z == n {
					z = 0
				}
			}
		}
	}
	return h
}

// gridStep advances the cell (x, y) of an n×n torus by k ≥ 0 cells in
// row-major order: x*n + y becomes (x*n + y + k) % (n*n), without a
// division (one pass per row carried).
func gridStep(x, y, k, n int) (int, int) {
	for y += k; y >= n; y -= n {
		if x++; x == n {
			x = 0
		}
	}
	return x, y
}

// wrapUp maps i ∈ [0, n] onto the ring [0, n): (i+n)%n without a division.
func wrapUp(i, n int) int {
	if i == n {
		return 0
	}
	return i
}

// wrapDown maps i ∈ [−1, n) onto the ring [0, n): (i+n)%n without a
// division.
func wrapDown(i, n int) int {
	if i < 0 {
		return i + n
	}
	return i
}

// kCactusADM models the numerical-relativity stencil: a staggered-grid
// update with heavier per-point arithmetic (trigonometric source terms).
func kCactusADM(size int, inj Injector) uint64 {
	n := 10 + size%6
	a := make([]float64, n*n, 15*15) // n ≤ 15: on the stack
	b := make([]float64, n*n, 15*15)
	rng := newXorshift(0xcac705)
	for i := range a {
		a[i] = rng.float() * 2
		b[i] = rng.float()
	}
	h := uint64(0x2)
	iters := 64 + size/3
	// i = (it*7 + 3) % (n*n) = x*n + y, stepped without a division.
	x, y := 0, 3
	for it := 0; it < iters; it++ {
		i := x*n + y
		lap := a[wrapUp(x+1, n)*n+y] + a[wrapDown(x-1, n)*n+y] +
			a[x*n+wrapUp(y+1, n)] + a[x*n+wrapDown(y-1, n)] - 4*a[i]
		src := math.Sin(b[i]) * math.Cos(a[i]*0.5)
		v := inj.F64(a[i] + 0.1*lap + 0.01*src)
		a[i] = v
		b[i] += 0.001 * v
		h = foldF64(h, v)
		x, y = gridStep(x, y, 7, n)
	}
	return h
}

// kDealII models the finite-element library: assembly of small element
// stiffness matrices followed by Jacobi smoothing of the global system.
func kDealII(size int, inj Injector) uint64 {
	const dim = 4
	n := 12 + size%8
	diag := make([]float64, n, 19) // n ≤ 19: on the stack
	off := make([]float64, n, 19)
	rhs := make([]float64, n, 19)
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
	x := make([]float64, n, 19)
	h := uint64(0x3)
	iters := 64 + size/4
	i := 0 // it % n
	for it := 0; it < iters; it++ {
		neigh := x[wrapUp(i+1, n)] + x[wrapDown(i-1, n)]
		v := inj.F64((rhs[i] - off[i]*neigh) / diag[i])
		x[i] = 0.5*x[i] + 0.5*v
		h = foldF64(h, v)
		if i++; i == n {
			i = 0
		}
	}
	return h
}

// kGromacs models molecular dynamics with bonded interactions: short
// Lennard-Jones sweeps over a fixed neighbor list.
func kGromacs(size int, inj Injector) uint64 {
	n := 16 + size%16
	px := make([]float64, n, 31) // n ≤ 31: on the stack
	py := make([]float64, n, 31)
	vx := make([]float64, n, 31)
	vy := make([]float64, n, 31)
	rng := newXorshift(0x960ac5)
	for i := 0; i < n; i++ {
		px[i] = rng.float() * 10
		py[i] = rng.float() * 10
	}
	h := uint64(0x4)
	iters := 64 + size/4
	i, r := 0, 0 // it % n, it % 3
	for it := 0; it < iters; it++ {
		j := i + 1 + r // < 2n: (i + 1 + it%3) % n after one wrap
		if j >= n {
			j -= n
		}
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
		if i++; i == n {
			i = 0
		}
		if r++; r == 3 {
			r = 0
		}
	}
	return h
}

// kLeslie3d models the turbulence CFD code: upwind-differenced advection
// on a 3-D slab with an energy accumulator.
func kLeslie3d(size int, inj Injector) uint64 {
	n := 9 + size%7
	u := make([]float64, n*n, 15*15) // n ≤ 15: on the stack
	rng := newXorshift(0x1e511e)
	for i := range u {
		u[i] = rng.float()*2 - 1
	}
	h := uint64(0x5)
	energy := 0.0
	iters := 64 + size/3
	// i = (it*5 + 1) % (n*n) = x*n + y, stepped without a division.
	x, y := 0, 1
	for it := 0; it < iters; it++ {
		i := x*n + y
		up := u[wrapDown(x-1, n)*n+y]
		dn := u[wrapUp(x+1, n)*n+y]
		flux := up
		if u[i] < 0 {
			flux = dn
		}
		v := inj.F64(u[i] - 0.2*(u[i]-flux) + 0.05*u[x*n+wrapUp(y+1, n)])
		u[i] = v
		energy += v * v
		h = foldF64(h, v)
		x, y = gridStep(x, y, 5, n)
	}
	return foldF64(h, energy)
}

// su3 is a 3×3 complex matrix of kMilc's lattice links.
type su3 [3][3]struct{ re, im float64 }

// su3Mul stores a·b/2 in out, which must not alias a or b. Each entry
// accumulates its three products from zero in k order.
func su3Mul(out, a, b *su3) {
	for i := 0; i < 3; i++ {
		ai := &a[i]
		for j := 0; j < 3; j++ {
			var re, im float64
			re += ai[0].re*b[0][j].re - ai[0].im*b[0][j].im
			im += ai[0].re*b[0][j].im + ai[0].im*b[0][j].re
			re += ai[1].re*b[1][j].re - ai[1].im*b[1][j].im
			im += ai[1].re*b[1][j].im + ai[1].im*b[1][j].re
			re += ai[2].re*b[2][j].re - ai[2].im*b[2][j].im
			im += ai[2].re*b[2][j].im + ai[2].im*b[2][j].re
			out[i][j].re, out[i][j].im = re*0.5, im*0.5
		}
	}
}

// kMilc models lattice QCD: products of small complex 3×3 (SU(3)-like)
// matrices along lattice links.
func kMilc(size int, inj Injector) uint64 {
	rng := newXorshift(0x313c)
	var links [8]su3
	for l := range links {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				links[l][i][j].re = rng.float() - 0.5
				links[l][i][j].im = rng.float() - 0.5
			}
		}
	}
	var bufs [2]su3
	acc, next := &bufs[0], &bufs[1]
	*acc = links[0]
	h := uint64(0x6)
	iters := 64 + size/6
	for it := 0; it < iters; it++ {
		su3Mul(next, acc, &links[it%8])
		acc, next = next, acc
		tr := inj.F64(acc[0][0].re + acc[1][1].re + acc[2][2].re)
		acc[0][0].re = tr * 0.9
		h = foldF64(h, tr)
	}
	return h
}

// kNamd models the NAMD molecular-dynamics force loop: pairwise
// electrostatics with a switching function, no neighbor rebuilds.
func kNamd(size int, inj Injector) uint64 {
	n := 20 + size%12
	q := make([]float64, n, 31) // n ≤ 31: on the stack
	p := make([]float64, n, 31)
	rng := newXorshift(0x4a3d)
	for i := 0; i < n; i++ {
		q[i] = rng.float() - 0.5
		p[i] = rng.float() * 5
	}
	h := uint64(0x7)
	iters := 64 + size/4
	i, k := 0, 1 // it % n, (it*3 + 1) % n
	for it := 0; it < iters; it++ {
		j := k
		if i == j {
			j = wrapUp(j+1, n)
		}
		r := math.Abs(p[i]-p[j]) + 0.05
		sw := 1 / (1 + r*r)
		e := inj.F64(q[i] * q[j] / r * sw)
		p[i] += e * 0.01
		h = foldF64(h, e)
		if i++; i == n {
			i = 0
		}
		if k += 3; k >= n {
			k -= n
		}
	}
	return h
}

// kSoplex models the LP solver: revised-simplex-style pivoting on a dense
// tableau, mixing comparisons, ratio tests and row updates.
func kSoplex(size int, inj Injector) uint64 {
	rows, cols := 8, 10
	t := make([]float64, rows*cols)
	rng := newXorshift(0x50b1e)
	for i := range t {
		t[i] = rng.float()*4 - 2
	}
	h := uint64(0x8)
	iters := 64 + size/5
	for it := 0; it < iters; it++ {
		// Pick entering column by most-negative reduced cost (row 0).
		col := 0
		for j := 1; j < cols; j++ {
			if t[j] < t[col] {
				col = j
			}
		}
		// Ratio test over the column.
		row, best := 1, math.Inf(1)
		for i := 1; i < rows; i++ {
			d := t[i*cols+col]
			if d > 1e-9 {
				if r := t[i*cols] / d; r < best {
					best, row = r, i
				}
			}
		}
		pivot := t[row*cols+col]
		if math.Abs(pivot) < 1e-9 {
			pivot = 1e-9
		}
		v := inj.F64(1 / pivot)
		for j := 0; j < cols; j++ {
			t[row*cols+j] *= v
		}
		t[row*cols+col] = v
		h = foldF64(h, v)
	}
	return h
}

// kZeusmp models the astrophysical MHD code: alternating hydro and
// magnetic-field sub-steps on a 2-D grid.
func kZeusmp(size int, inj Injector) uint64 {
	n := 10 + size%6
	d := make([]float64, n*n, 15*15) // density; n ≤ 15: on the stack
	bf := make([]float64, n*n, 15*15)
	rng := newXorshift(0x2e05)
	for i := range d {
		d[i] = 1 + rng.float()
		bf[i] = rng.float() * 0.1
	}
	h := uint64(0x9)
	iters := 64 + size/3
	// i = (it*11 + 5) % (n*n) = x*n + y, stepped without a division.
	x, y := 0, 5
	for it := 0; it < iters; it++ {
		i := x*n + y
		right := d[x*n+wrapUp(y+1, n)]
		if it%2 == 0 { // hydro sub-step
			v := inj.F64(d[i] + 0.1*(right-d[i]) - 0.05*bf[i]*bf[i])
			d[i] = math.Max(v, 0.01)
			h = foldF64(h, v)
		} else { // magnetic sub-step
			v := inj.F64(bf[i] + 0.02*(d[wrapUp(x+1, n)*n+y]-d[i]))
			bf[i] = v
			h = foldF64(h, v)
		}
		x, y = gridStep(x, y, 11, n)
	}
	return h
}

// kGamess models the quantum-chemistry package: two-electron-integral-like
// quadruple loops over a small basis with exponential screening.
func kGamess(size int, inj Injector) uint64 {
	nb := 6
	expo := make([]float64, nb)
	rng := newXorshift(0x6a3e55)
	for i := range expo {
		expo[i] = 0.5 + rng.float()*2
	}
	h := uint64(0xa)
	iters := 64 + size/5
	for it := 0; it < iters; it++ {
		i, j := it%nb, (it/nb)%nb
		k, l := (it/2)%nb, (it/3)%nb
		p := expo[i] + expo[j]
		q := expo[k] + expo[l]
		v := inj.F64(math.Exp(-p*q/(p+q)) / math.Sqrt(p+q))
		expo[i] = 0.999*expo[i] + 0.001*v
		h = foldF64(h, v)
	}
	return h
}

// fPovray models the ray tracer: ray-sphere intersection batches with
// shading arithmetic on the hits. It is fold-only (foldProgram): a site
// is one ray's shade, computed from the scene alone.
var fPovray = &foldProgram{seed: 0xb, float: true, sites: povraySites}

// kPovray is povray's kernel: its body's values folded through inj.
func kPovray(size int, inj Injector) uint64 {
	var buf [siteBufLen]uint64
	return fPovray.checksum(povraySites(size, buf[:0]), inj)
}

func povraySites(size int, dst []uint64) []uint64 {
	type sphere struct{ cx, cy, cz, r float64 }
	rng := newXorshift(0x90f7a4)
	spheres := make([]sphere, 8)
	for i := range spheres {
		spheres[i] = sphere{rng.float()*4 - 2, rng.float()*4 - 2, 2 + rng.float()*4, 0.3 + rng.float()}
	}
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		// Ray through a pseudo-pixel, direction normalized-ish.
		dx := float64(it%17)/17 - 0.5
		dy := float64(it%13)/13 - 0.5
		dz := 1.0
		closest := math.Inf(1)
		for _, s := range spheres {
			// Quadratic for intersection along the ray from origin.
			b := dx*s.cx + dy*s.cy + dz*s.cz
			c := s.cx*s.cx + s.cy*s.cy + s.cz*s.cz - s.r*s.r
			disc := b*b - c
			if disc > 0 {
				if tHit := b - math.Sqrt(disc); tHit > 0 && tHit < closest {
					closest = tHit
				}
			}
		}
		shade := 0.0
		if !math.IsInf(closest, 1) {
			shade = 1 / (1 + closest*closest)
		}
		dst = append(dst, math.Float64bits(shade))
	}
	return dst
}

// kCalculix models the structural FEM solver: skyline-stored triangular
// solves alternated with element stress recovery.
func kCalculix(size int, inj Injector) uint64 {
	n := 12 + size%6
	lower := make([]float64, n*n, 17*17) // n ≤ 17: on the stack
	rng := newXorshift(0xca1c)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			lower[i*n+j] = rng.float() * 0.5
		}
		lower[i*n+i] += 1.5
	}
	x := make([]float64, n, 17)
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

// kGemsFDTD models the finite-difference time-domain electromagnetic
// solver: leapfrogged E and H field updates on a 2-D grid.
func kGemsFDTD(size int, inj Injector) uint64 {
	n := 10 + size%6
	ez := make([]float64, n*n, 15*15) // n ≤ 15: on the stack
	hx := make([]float64, n*n, 15*15)
	hy := make([]float64, n*n, 15*15)
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

// kLbm models the lattice-Boltzmann fluid solver: collide-and-stream
// updates of a D2Q5 distribution with a relaxation parameter.
func kLbm(size int, inj Injector) uint64 {
	n := 10 + size%6
	const q = 5
	f := make([]float64, n*n*q, 15*15*q) // n ≤ 15: on the stack
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
