// Delta snapshot encoding for /api/fleet. The serialized fleet document
// is a pure function of the status table, which changes only at commit
// time; the encoder caches one serialized segment per board and, on a
// generation miss, re-marshals only the boards whose status committed
// since the cached generation, then restitches the document around the
// untouched segments. Steady-state encode cost is O(dirty boards), not
// O(fleet).
//
// On top of the full document, BoardsDeltaJSON serves wire-level deltas:
// a client that saw generation S asks for "everything since S" and gets
// a document containing only the boards that committed after S, resolved
// through the per-generation dirty log — no full-fleet scan, no full-
// fleet transfer. This is what keeps /api/fleet flat in board count.
// The last delta stitched is kept for its (since, generation): dashboard
// readers that all resume from the previous commit share one stitch.
//
// Segments are encoded by apiv1.AppendBoardStatus and stitched by
// apiv1.AppendBoards and AppendBoardsDelta, the api/v1 codec that owns
// the board documents' bytes. The stitched bytes are pinned
// byte-identical to apiv1.Marshal of the apiv1.Boards document by
// snapshot_test.go, and the delta document the same way against
// apiv1.BoardsDelta.

package fleet

import (
	"sort"
	"sync"

	apiv1 "xvolt/api/v1"
)

// dirtyLogGens is how many generations of dirty-board lists the fleet
// retains. Delta readers further behind than this fall back to a full
// delta (every board); with the daemon committing one generation per
// pacing tick, 256 generations is about a minute of client staleness.
const dirtyLogGens = 256

// snapshotEncoder holds the per-board segment arena, the stitched
// document for one generation and the last stitched delta. The segment
// table and each board's segment buffer are reused across generations:
// every document copies the segments it holds under mu. Bodies are
// freshly allocated because in-flight HTTP responses may still
// reference the previous one.
//
// Lock order: enc.mu is taken strictly before Manager.mu, never the
// reverse.
type snapshotEncoder struct {
	mu      sync.Mutex
	segGen  uint64   // generation the segment arena reflects (0 = never)
	bodyGen uint64   // generation the stitched full document reflects
	segs    [][]byte // per-board serialized segments
	body    []byte   // stitched full document for bodyGen
	encoded int      // segments re-marshaled at the last refresh

	deltaSince, deltaGen uint64 // the (since, generation) delta holds
	delta                []byte // last stitched delta document, or nil
}

// BoardsJSON returns the fleet generation and the serialized /api/fleet
// document for it, serving from cache when the generation is unchanged
// and re-encoding only dirty boards otherwise. The returned slice is
// shared and must not be mutated.
func (m *Manager) BoardsJSON() (uint64, []byte, error) {
	m.enc.mu.Lock()
	defer m.enc.mu.Unlock()

	m.mu.Lock()
	gen := m.gen.Load()
	if m.enc.bodyGen == gen && m.enc.body != nil {
		m.mu.Unlock()
		return gen, m.enc.body, nil
	}
	m.mu.Unlock()

	gen, err := m.refreshSegments()
	if err != nil {
		return gen, nil, err
	}
	m.enc.stitch(gen)
	return gen, m.enc.body, nil
}

// BoardsDeltaJSON returns the fleet generation and a delta document
// holding only the boards whose status committed after generation
// `since` — the wire-level complement of the segment arena. A nil body
// means since is the current generation: the client is current (HTTP
// layers answer 304). Readers further behind than the dirty log, and
// readers ahead of the generation (they counted another run's
// generations), receive every board, which is still a correct (if
// maximal) delta. The delta is a pure function of (since, generation),
// so the last one stitched answers every reader asking the same since
// until the next commit. The returned slice is shared and must not be
// mutated.
func (m *Manager) BoardsDeltaJSON(since uint64) (uint64, []byte, error) {
	if gen := m.gen.Load(); gen == since {
		return gen, nil, nil // a current reader waits on no stitch
	}
	m.enc.mu.Lock()
	defer m.enc.mu.Unlock()

	gen := m.gen.Load()
	if gen == since {
		return gen, nil, nil
	}
	if e := &m.enc; e.delta != nil && e.deltaGen == gen && e.deltaSince == since {
		return gen, e.delta, nil
	}

	gen, err := m.refreshSegments()
	if err != nil {
		return gen, nil, err
	}
	m.mu.Lock()
	delta, ok := m.dirtySinceLocked(since, gen)
	if !ok {
		delta = make([]int, len(m.status))
		for i := range delta {
			delta[i] = i
		}
	}
	m.mu.Unlock()
	return gen, m.enc.appendDelta(gen, since, delta), nil
}

// BoardsSince returns the fleet generation and the statuses of the
// boards that committed after generation since, in board order — the
// typed counterpart of BoardsDeltaJSON, which the hub pusher ships. It
// resolves the boards through the dirty log, so the cost follows the
// boards that changed. since 0, a since older than the dirty log, or
// one past the generation returns every board; since at the generation
// returns none.
func (m *Manager) BoardsSince(since uint64) (uint64, []BoardStatus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.gen.Load()
	if since > 0 {
		if idx, ok := m.dirtySinceLocked(since, gen); ok {
			out := make([]BoardStatus, len(idx))
			for k, i := range idx {
				out[k] = m.status[i]
			}
			return gen, out
		}
	}
	return gen, append([]BoardStatus(nil), m.status...)
}

// refreshSegments brings the segment arena up to the current generation,
// re-marshaling only boards dirtied since the arena's generation, and
// returns the generation the arena now reflects. Callers hold enc.mu.
func (m *Manager) refreshSegments() (uint64, error) {
	m.mu.Lock()
	gen := m.gen.Load()
	if m.enc.segs != nil && m.enc.segGen == gen {
		m.mu.Unlock()
		return gen, nil
	}
	if m.enc.segs == nil {
		m.enc.segs = make([][]byte, len(m.status))
	}
	dirty, ok := m.dirtySinceLocked(m.enc.segGen, gen)
	if !ok {
		dirty = make([]int, len(m.status))
		for i := range dirty {
			dirty[i] = i
		}
	}
	// Copy dirty statuses out so marshaling runs outside m.mu.
	statuses := make([]BoardStatus, len(dirty))
	for k, i := range dirty {
		statuses[k] = m.status[i]
	}
	dirtyGauge := m.m.dirtyBoards
	m.mu.Unlock()

	if err := m.enc.encode(gen, dirty, statuses); err != nil {
		return gen, err
	}
	dirtyGauge.Set(float64(len(dirty)))
	return gen, nil
}

// dirtySinceLocked resolves "which boards committed after generation
// since" through the per-generation dirty log: the union of the logged
// index lists for (since, gen], sorted and deduplicated. The second
// return is false when the log does not cover the span — the reader is
// too far behind, or ahead of gen, so its since numbers another run's
// generations; callers fall back to every board. Cost is O(committed
// polls in the span), never O(fleet). Callers hold m.mu.
func (m *Manager) dirtySinceLocked(since, gen uint64) ([]int, bool) {
	if gen == since {
		return nil, true
	}
	if since > gen || gen-since >= dirtyLogGens {
		return nil, false
	}
	n := 0
	for g := since + 1; g <= gen; g++ {
		slot := g % dirtyLogGens
		if m.dirtyGens[slot] != g {
			return nil, false // evicted under the reader
		}
		n += len(m.dirtyIdx[slot])
	}
	out := make([]int, 0, n)
	for g := since + 1; g <= gen; g++ {
		out = append(out, m.dirtyIdx[g%dirtyLogGens]...)
	}
	sort.Ints(out)
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k], true
}

// logDirtyLocked records board i as dirtied by generation gen in the
// dirty log ring, truncating (and reusing) the slot's slice on first
// touch per generation. Callers hold m.mu.
func (m *Manager) logDirtyLocked(gen uint64, i int) {
	slot := gen % dirtyLogGens
	if m.dirtyGens[slot] != gen {
		m.dirtyGens[slot] = gen
		m.dirtyIdx[slot] = m.dirtyIdx[slot][:0]
	}
	m.dirtyIdx[slot] = append(m.dirtyIdx[slot], i)
}

// encode re-encodes the dirty segments into the arena, each into its
// board's existing buffer. Callers hold enc.mu.
//
//xvolt:hotpath delta snapshot encode; every /api/fleet generation miss crosses this
func (e *snapshotEncoder) encode(gen uint64, dirty []int, statuses []BoardStatus) error {
	for k, i := range dirty {
		seg, err := apiv1.AppendBoardStatus(e.segs[i][:0], &statuses[k])
		if err != nil {
			return err
		}
		e.segs[i] = seg
	}
	e.segGen = gen
	e.encoded = len(dirty)
	return nil
}

// stitch rebuilds the full document from the segment arena. Callers hold
// enc.mu with the arena already refreshed to gen.
func (e *snapshotEncoder) stitch(gen uint64) {
	e.body = apiv1.AppendBoards(nil, e.segs)
	e.bodyGen = gen
}

// appendDelta stitches the delta document for the given board indices
// around the arena's segments into a fresh buffer, and keeps it as the
// (since, gen) delta. Callers hold enc.mu with the arena refreshed to
// gen.
func (e *snapshotEncoder) appendDelta(gen, since uint64, idx []int) []byte {
	segs := make([][]byte, len(idx))
	for k, i := range idx {
		segs[k] = e.segs[i]
	}
	e.delta = apiv1.AppendBoardsDelta(nil, gen, since, segs)
	e.deltaSince, e.deltaGen = since, gen
	return e.delta
}
