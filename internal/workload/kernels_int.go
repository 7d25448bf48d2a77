// Integer kernels for the prediction suite (§4 uses 26 SPEC CPU2006
// programs). Like the floating-point kernels, each is a deterministic
// miniature of the pattern its namesake exercises: pointer chasing,
// compression, dynamic programming, game-tree search, event simulation…
// Rewrites for speed follow the bit-identity rule in kernels_fp.go.
package workload

import (
	"encoding/binary"
	"math/bits"
)

// kMcf models the min-cost-flow solver: Bellman-Ford-style relaxations
// over a sparse network — pointer-chasing and branch-heavy, low IPC.
func kMcf(size int, inj Injector) uint64 {
	n := 32 + size%32
	const deg = 4
	// Deterministic sparse graph.
	rng := newXorshift(0x3cf)
	head := make([]int, n*deg, 63*deg) // n ≤ 63: on the stack
	cost := make([]uint64, n*deg, 63*deg)
	for i := range head {
		head[i] = rng.intn(n)
		cost[i] = uint64(rng.intn(100) + 1)
	}
	dist := make([]uint64, n, 63)
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

// kPerlbench models the interpreter: tokenizing and hashing synthetic
// "script" text with state-machine dispatch.
func kPerlbench(size int, inj Injector) uint64 {
	rng := newXorshift(0x9e71)
	text := make([]byte, 256)
	for i := range text {
		text[i] = byte('a' + rng.intn(26))
		if rng.intn(7) == 0 {
			text[i] = ' '
		}
	}
	h := uint64(0x11)
	state := uint64(5381)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		switch c := text[it%len(text)]; {
		case c == ' ':
			h = fold(h, state)
			state = 5381
		case c < 'm':
			state = inj.Word(state*33 + uint64(c))
		default:
			state = inj.Word(bits.RotateLeft64(state, 5) ^ uint64(c))
		}
	}
	return fold(h, state)
}

// kBzip2 models the compressor: run-length encoding plus a move-to-front
// transform over a synthetic buffer.
func kBzip2(size int, inj Injector) uint64 {
	rng := newXorshift(0xb21b)
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(rng.intn(16)) // low entropy: runs exist
	}
	var mtf [16]byte
	for i := range mtf {
		mtf[i] = byte(i)
	}
	h := uint64(0x12)
	run := uint64(0)
	prev := byte(255)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		c := buf[it%len(buf)]
		if c == prev {
			run++
			continue
		}
		// Move-to-front index of c.
		idx := 0
		for j, v := range mtf {
			if v == c {
				idx = j
				break
			}
		}
		copy(mtf[1:idx+1], mtf[:idx])
		mtf[0] = c
		sym := inj.Word(run<<8 | uint64(idx))
		h = fold(h, sym)
		run, prev = 0, c
	}
	return h
}

// kGcc models the compiler: constant-folding and dead-code passes over a
// synthetic three-address IR.
func kGcc(size int, inj Injector) uint64 {
	type insn struct {
		op      int // 0 add, 1 mul, 2 mov, 3 cmp
		a, b, d int
	}
	rng := newXorshift(0x6cc)
	prog := make([]insn, 96)
	for i := range prog {
		prog[i] = insn{rng.intn(4), rng.intn(16), rng.intn(16), rng.intn(16)}
	}
	regs := make([]uint64, 16)
	for i := range regs {
		regs[i] = uint64(i * 3)
	}
	h := uint64(0x13)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		in := prog[it%len(prog)]
		var v uint64
		switch in.op {
		case 0:
			v = regs[in.a] + regs[in.b]
		case 1:
			v = regs[in.a] * (regs[in.b] | 1)
		case 2:
			v = regs[in.a]
		default:
			if regs[in.a] > regs[in.b] {
				v = 1
			}
		}
		v = inj.Word(v)
		regs[in.d] = v
		h = fold(h, v)
	}
	return h
}

// kGobmk models the Go engine: liberty counting and pattern hashing on a
// small board with captures.
func kGobmk(size int, inj Injector) uint64 {
	const bd = 9
	var board [bd * bd]int8
	rng := newXorshift(0x60b)
	h := uint64(0x14)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		pos := rng.intn(bd * bd)
		color := int8(1 + it%2)
		board[pos] = color
		// Count pseudo-liberties of the placed stone.
		libs := uint64(0)
		x, y := pos/bd, pos%bd
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx >= 0 && nx < bd && ny >= 0 && ny < bd {
				if board[nx*bd+ny] == 0 {
					libs++
				} else if board[nx*bd+ny] != color {
					libs += 2 // contact bonus in the eval hash
				}
			}
		}
		v := inj.Word(uint64(pos)<<8 | libs)
		h = fold(h, v)
		if libs == 0 {
			board[pos] = 0 // suicide: undo
		}
	}
	return h
}

// kHmmer models the profile-HMM search: Viterbi dynamic programming bands
// over integer scores — high IPC, regular access.
func kHmmer(size int, inj Injector) uint64 {
	const states = 24
	rng := newXorshift(0x4371)
	emit := make([]int64, states*4)
	for i := range emit {
		emit[i] = int64(rng.intn(32) - 8)
	}
	cur := make([]int64, states)
	next := make([]int64, states)
	h := uint64(0x15)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		sym := (it * 2654435761) % 4
		for s := 1; s < states; s++ {
			m := cur[s-1] + 3
			if d := cur[s] - 1; d > m {
				m = d
			}
			next[s] = m + emit[s*4+sym]
		}
		cur, next = next, cur
		v := inj.Word(uint64(cur[states-1]))
		cur[states-1] = int64(v)
		h = fold(h, v)
	}
	return h
}

// kSjeng models the chess engine: fixed-depth negamax over a synthetic
// move tree with alpha-beta-style cutoffs.
func kSjeng(size int, inj Injector) uint64 {
	rng := newXorshift(0x57e6)
	scores := make([]int64, 1024)
	for i := range scores {
		scores[i] = int64(rng.intn(200) - 100)
	}
	var negamax func(node, depth int, alpha, beta int64) int64
	negamax = func(node, depth int, alpha, beta int64) int64 {
		if depth == 0 {
			return scores[node%len(scores)]
		}
		best := int64(-1 << 30)
		for m := 0; m < 3; m++ {
			v := -negamax(node*3+m+1, depth-1, -beta, -alpha)
			if v > best {
				best = v
			}
			if v > alpha {
				alpha = v
			}
			if alpha >= beta {
				break
			}
		}
		return best
	}
	h := uint64(0x16)
	iters := 64 + size/8
	for it := 0; it < iters; it++ {
		v := inj.Word(uint64(negamax(it, 3, -1<<30, 1<<30)))
		h = fold(h, v)
	}
	return h
}

// kLibquantum models the quantum simulator: gate applications over a
// 12-qubit state vector's basis indices (bit manipulation heavy).
func kLibquantum(size int, inj Injector) uint64 {
	const qubits = 12
	const dim = 1 << qubits
	amp := make([]int64, dim/16) // sparse sampled amplitudes
	for i := range amp {
		amp[i] = int64(i*7 + 1)
	}
	h := uint64(0x17)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		target := uint(it % qubits)
		control := uint((it + 5) % qubits)
		idx := (it * 2654435761) % len(amp)
		basis := uint64(idx)
		if basis&(1<<control) != 0 {
			basis ^= 1 << target // CNOT on the basis label
		}
		v := inj.Word(basis*uint64(amp[idx]) + uint64(it))
		amp[idx] = int64(v % (1 << 20))
		h = fold(h, v)
	}
	return h
}

// kH264ref models the video encoder: sum-of-absolute-differences motion
// search over synthetic macroblocks.
func kH264ref(size int, inj Injector) uint64 {
	const mb = 8
	rng := newXorshift(0x264)
	ref := make([]uint8, 64*64)
	curFrame := make([]uint8, 64*64)
	for i := range ref {
		ref[i] = uint8(rng.intn(256))
		curFrame[i] = uint8(int(ref[i]) + rng.intn(9) - 4)
	}
	offsets := [5][2]int{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	h := uint64(0x18)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		bx := (it * 3) % (64 - mb)
		by := (it * 5) % (64 - mb)
		bestSAD := uint64(1 << 30)
		for _, off := range offsets {
			rx, ry := bx+off[0], by+off[1]
			if rx < 0 || ry < 0 || rx >= 64-mb || ry >= 64-mb {
				continue
			}
			var lanes uint64
			for y := 0; y < mb; y++ {
				a := binary.LittleEndian.Uint64(curFrame[(by+y)*64+bx:])
				b := binary.LittleEndian.Uint64(ref[(ry+y)*64+rx:])
				lanes += absDiff4(a&laneLo, b&laneLo) + absDiff4(a>>8&laneLo, b>>8&laneLo)
			}
			bestSAD = min(bestSAD, sumLanes(lanes))
		}
		v := inj.Word(bestSAD)
		h = fold(h, v)
	}
	return h
}

// SAD arithmetic on four 16-bit lanes per uint64 (SWAR): a row of eight
// pixels is split into its even and odd bytes, and |a−b| of all eight
// pairs takes a handful of word operations and no data-dependent branch.
// Every step is exact: a lane holds a byte difference biased into
// [1, 511] and never borrows from or carries into its neighbour, and a
// block's accumulated lanes sum to at most 8 rows × 8 × 255 < 2¹⁶.
const (
	laneLo   = 0x00ff00ff00ff00ff // the low byte of every lane
	laneOne  = 0x0001000100010001 // 1 in every lane
	laneBias = 0x0100010001000100 // 256 in every lane
)

// absDiff4 is |x−y| per lane for lanes holding bytes.
func absDiff4(x, y uint64) uint64 {
	d := (x | laneBias) - y          // x−y+256 ∈ [1, 511] per lane
	lt := (^d >> 8) & laneOne        // 1 where x < y
	return (d&laneLo ^ lt*0xff) + lt // x−y, or 256−(x−y+256) = y−x
}

// sumLanes adds the four lanes of v (their sum must stay below 2¹⁶).
func sumLanes(v uint64) uint64 { return v * laneOne >> 48 }

// kOmnetpp models the discrete-event simulator: a binary-heap event queue
// with dependent event insertion — pointer/memory heavy.
func kOmnetpp(size int, inj Injector) uint64 {
	type event struct {
		time uint64
		kind int
	}
	heap := make([]event, 0, 256)
	push := func(e event) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].time <= heap[i].time {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() event {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l].time < heap[small].time {
				small = l
			}
			if r < last && heap[r].time < heap[small].time {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	rng := newXorshift(0x03e7)
	for i := 0; i < 32; i++ {
		push(event{uint64(rng.intn(1000)), rng.intn(4)})
	}
	h := uint64(0x19)
	iters := 64 + size/2
	for it := 0; it < iters; it++ {
		e := pop()
		v := inj.Word(e.time<<3 | uint64(e.kind))
		h = fold(h, v)
		// Each event schedules 1–2 follow-ups.
		push(event{e.time + uint64(rng.intn(50)+1), (e.kind + 1) % 4})
		if e.kind == 0 {
			push(event{e.time + uint64(rng.intn(20)+1), 2})
		}
		if len(heap) > 200 {
			heap = heap[:100]
		}
	}
	return h
}

// kAstar models the path-finder: A* over a weighted grid with a Manhattan
// heuristic, rebuilt for several start/goal pairs.
func kAstar(size int, inj Injector) uint64 {
	rng := newXorshift(0xa57a)
	var weight astarGrid
	for i := range weight {
		weight[i] = uint64(rng.intn(9) + 1)
	}
	var unreached, dist astarGrid
	for i := range unreached {
		unreached[i] = 1 << 40
	}
	h := uint64(0x1a)
	iters := 64 + size/8
	for it := 0; it < iters; it++ {
		start := (it * 7) % (astarN * astarN)
		goal := (it*13 + astarN) % (astarN * astarN)
		gx, gy := goal/astarN, goal%astarN
		dist = unreached
		dist[start] = 0
		// Greedy best-first expansion, bounded steps. Neighbours are
		// relaxed in the order (+1,0), (−1,0), (0,+1), (0,−1); the first
		// strictly lowest score wins.
		curNode := start
		for step := 0; step < 40 && curNode != goal; step++ {
			// curNode ≥ 0, so the unsigned split is exact; no neighbour
			// is curNode itself, so dc holds for all four.
			x, y := int(uint(curNode)/astarN), int(uint(curNode)%astarN)
			dc := dist[curNode]
			best, next := uint64(1<<62), curNode
			if x+1 < astarN {
				best, next = astarRelax(&dist, &weight, dc, curNode+astarN, absInt(x+1-gx)+absInt(y-gy), best, next)
			}
			if x-1 >= 0 {
				best, next = astarRelax(&dist, &weight, dc, curNode-astarN, absInt(x-1-gx)+absInt(y-gy), best, next)
			}
			if y+1 < astarN {
				best, next = astarRelax(&dist, &weight, dc, curNode+1, absInt(x-gx)+absInt(y+1-gy), best, next)
			}
			if y-1 >= 0 {
				_, next = astarRelax(&dist, &weight, dc, curNode-1, absInt(x-gx)+absInt(y-1-gy), best, next)
			}
			curNode = next
		}
		v := inj.Word(dist[curNode] + uint64(curNode))
		h = fold(h, v)
	}
	return h
}

// astarN is kAstar's grid side.
const astarN = 16

// astarGrid holds one value per kAstar grid node.
type astarGrid [astarN * astarN]uint64

// astarRelax relaxes the edge into node nn, at Manhattan distance manh
// from the goal, from a node at distance dc, and folds nn's score into
// the running best without a branch.
func astarRelax(dist, weight *astarGrid, dc uint64, nn, manh int, best uint64, next int) (uint64, int) {
	g := dc + weight[nn]
	dist[nn] = min(dist[nn], g)
	score := g + 2*uint64(manh)
	return min(best, score), choose(score < best, nn, next)
}

// absInt is |x| without a data-dependent branch.
func absInt(x int) int {
	m := x >> 63
	return (x ^ m) - m
}

// choose is c ? a : b, in a form the compiler lowers to a conditional
// move instead of a branch.
func choose(c bool, a, b int) int {
	if c {
		return a
	}
	return b
}

// kXalancbmk models the XSLT processor: tree walking and string
// transformation over a synthetic DOM. The 128-node DOM is rebuilt on
// each call in fixed-size arrays, children by offset: count each node's
// children, turn the counts into offsets, then place every child in
// index order, so each node's children keep the order they were drawn
// in.
func kXalancbmk(size int, inj Injector) uint64 {
	const nodes = 128
	var (
		parent [nodes]int
		tag    [nodes]int
		first  [nodes + 1]int // node n's children are child[first[n]:first[n+1]]
		child  [nodes - 1]int
	)
	rng := newXorshift(0xa1a)
	for i := 1; i < nodes; i++ {
		parent[i] = rng.intn(i)
		tag[i] = rng.intn(12)
		first[parent[i]+1]++
	}
	for n := 1; n <= nodes; n++ {
		first[n] += first[n-1]
	}
	next := first
	for i := 1; i < nodes; i++ {
		child[next[parent[i]]] = i
		next[parent[i]]++
	}
	h := uint64(0x1b)
	iters := 64 + size/4
	for it := 0; it < iters; it++ {
		// Template "match": walk from a pseudo-random node to the leaves,
		// hashing tags with transformation rules.
		cur := it % nodes
		acc := uint64(0xcbf29ce484222325)
		for depth := 0; depth < 12; depth++ {
			acc = (acc ^ uint64(tag[cur])) * 0x100000001b3
			kids := child[first[cur]:first[cur+1]]
			if len(kids) == 0 {
				break
			}
			cur = kids[(it+depth)%len(kids)]
		}
		v := inj.Word(acc)
		h = fold(h, v)
	}
	return h
}
