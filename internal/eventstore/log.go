// Log backend: an append-only segmented journal of ring operations.
//
// Layout: a directory of numbered segment files (00000001.seg, …), each
// a sequence of CRC-framed ops (codec.go). The live ring is mirrored in
// memory; every mutation it makes — append, dedup merge, retention
// eviction — is journaled before Append returns, so the disk is always
// an op-exact transcript of the retained state. Reopening replays the
// transcript: the reconstructed ring is byte-identical to the live one,
// whatever the segment layout, which log_test.go pins against Memory.
//
// Rotation: when the active segment passes SegmentBytes the log seals
// it and opens the next. Compaction: when sealed segments accumulate
// past MaxSegments, the next segment opens with a snapshot (ring meta +
// every retained record) and the older segments are deleted — retention
// already evicted their live records, and the snapshot re-anchors
// everything still retained, so dedup semantics survive the rewrite.
//
// Crash recovery: a torn or corrupt frame truncates its segment at the
// last good frame and drops any later segments; the recovered state is
// the exact journal prefix. Appends are flushed to the OS per call
// (process-crash safe); call Sync for power-loss durability points.

package eventstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LogOptions parameterize a segmented log.
type LogOptions struct {
	// Capacity, DedupWindow, RetainAge parameterize the ring exactly as
	// in NewMemory.
	Capacity    int
	DedupWindow time.Duration
	RetainAge   time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB; minimum 4 KiB).
	SegmentBytes int
	// MaxSegments triggers snapshot compaction when the sealed segment
	// count would exceed it (default 8; minimum 2).
	MaxSegments int
}

func (o LogOptions) withDefaults() LogOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SegmentBytes < 4096 {
		o.SegmentBytes = 4096
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	if o.MaxSegments < 2 {
		o.MaxSegments = 2
	}
	return o
}

// Log is the durable Store backend. Construct with OpenLog.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts LogOptions
	r    ring

	active     *os.File
	activeIdx  uint64 // active segment number
	activeSize int64
	sealed     []uint64 // sealed segment numbers, ascending

	buf  []byte // reusable frame-encode buffer
	pbuf []byte // reusable payload buffer
	werr error  // sticky journal write error
}

var _ Store = (*Log)(nil)

// segExt is the segment filename suffix.
const segExt = ".seg"

// segName renders a segment filename ("00000001.seg").
func segName(idx uint64) string {
	s := strconv.FormatUint(idx, 10)
	if len(s) < 8 {
		s = strings.Repeat("0", 8-len(s)) + s
	}
	return s + segExt
}

// OpenLog opens (creating if needed) a segmented log in dir and replays
// its journal. A torn tail — a crash mid-append — is truncated to the
// last complete frame; the recovered state is the exact prefix the
// journal reached.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		r:    newRing(opts.Capacity, opts.DedupWindow, opts.RetainAge),
		buf:  make([]byte, 0, 1024),
		pbuf: make([]byte, 0, 512),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.replay(segs); err != nil {
		return nil, err
	}
	return l, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, idx)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replay reconstructs the ring from the journal, truncating the first
// torn frame it meets and discarding everything after it (later frames
// of that segment and all later segments). The surviving prefix becomes
// the live state; the torn segment becomes the active one.
func (l *Log) replay(segs []uint64) error {
	for si, idx := range segs {
		path := filepath.Join(l.dir, segName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("eventstore: %w", err)
		}
		good, terr := l.applySegment(data)
		if terr == nil && si < len(segs)-1 {
			l.sealed = append(l.sealed, idx)
			continue
		}
		// Torn frame (or clean final segment): this segment becomes the
		// active tail; everything after the good prefix is dropped.
		if terr != nil {
			if err := os.Truncate(path, good); err != nil {
				return fmt.Errorf("eventstore: truncating torn tail: %w", err)
			}
			for _, later := range segs[si+1:] {
				if err := os.Remove(filepath.Join(l.dir, segName(later))); err != nil {
					return fmt.Errorf("eventstore: dropping post-tear segment: %w", err)
				}
			}
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("eventstore: %w", err)
		}
		size, err := f.Seek(0, 2)
		if err != nil {
			closeErr := f.Close()
			return errors.Join(fmt.Errorf("eventstore: %w", err), closeErr)
		}
		l.active = f
		l.activeIdx = idx
		l.activeSize = size
		return nil
	}
	// Unreachable: the loop always returns on the final segment.
	return errors.New("eventstore: replay reached no active segment")
}

// applySegment replays one segment's frames into the ring, returning
// the byte offset of the first torn frame (len(data) when clean) and
// errTorn if one was found. Snapshot groups (opSnap + its opState
// records) apply atomically: a group cut short by a tear rolls back to
// the group's first byte, so a crash mid-compaction can never leave a
// half-restored ring.
func (l *Log) applySegment(data []byte) (good int64, err error) {
	rest := data
	var snap *snapMeta
	snapStart := 0
	for len(rest) > 0 {
		frameOff := len(data) - len(rest)
		payload, next, ferr := nextFrame(rest)
		if ferr != nil {
			if snap != nil {
				return int64(snapStart), errTorn
			}
			return int64(frameOff), errTorn
		}
		if len(payload) == 0 {
			return int64(frameOff), errTorn
		}
		op, body := payload[0], payload[1:]
		if snap != nil {
			if op != opState {
				return int64(snapStart), errTorn
			}
			rec, derr := decodeRecord(body)
			if derr != nil {
				return int64(snapStart), errTorn
			}
			snap.events = append(snap.events, rec)
			if len(snap.events) == cap(snap.events) {
				l.r.restore(snap.seq, snap.stats, snap.events)
				snap = nil
			}
			rest = next
			continue
		}
		switch op {
		case opAppend:
			rec, derr := decodeRecord(body)
			if derr != nil {
				return int64(frameOff), errTorn
			}
			l.r.applyAppend(rec)
		case opMerge:
			seq, b, derr := readUvarint(body)
			if derr != nil {
				return int64(frameOff), errTorn
			}
			count, b, derr := readVarint(b)
			if derr != nil {
				return int64(frameOff), errTorn
			}
			lastAt, b, derr := readVarint(b)
			if derr != nil || len(b) != 0 {
				return int64(frameOff), errTorn
			}
			l.r.applyMerge(seq, int(count), time.Duration(lastAt))
		case opEvict:
			n, b, derr := readVarint(body)
			if derr != nil || len(b) != 0 {
				return int64(frameOff), errTorn
			}
			l.r.applyEvict(int(n))
		case opSnap:
			meta, derr := decodeSnapHeader(body, len(next)/(frameHeaderSize+1))
			if derr != nil {
				return int64(frameOff), errTorn
			}
			if cap(meta.events) == 0 {
				// Empty snapshot: applies immediately.
				l.r.restore(meta.seq, meta.stats, nil)
			} else {
				snap = &meta
				snapStart = frameOff
			}
		default:
			return int64(frameOff), errTorn
		}
		rest = next
	}
	if snap != nil {
		return int64(snapStart), errTorn
	}
	return int64(len(data)), nil
}

// snapMeta carries an in-progress snapshot restore during replay; its
// events slice is pre-capped to the promised record count.
type snapMeta struct {
	seq    uint64
	stats  Stats
	events []Record
}

// decodeSnapHeader unpacks an opSnap body: ring seq counter, lifetime
// stats, and the retained record count that follows as opState frames.
// A count above room, the most opState frames the rest of the segment
// could hold, is a group cut short: it is torn before any record is
// allocated for it.
func decodeSnapHeader(body []byte, room int) (snapMeta, error) {
	var m snapMeta
	var err error
	var u uint64
	if u, body, err = readUvarint(body); err != nil {
		return m, err
	}
	m.seq = u
	if u, body, err = readUvarint(body); err != nil {
		return m, err
	}
	m.stats.Appends = u
	if u, body, err = readUvarint(body); err != nil {
		return m, err
	}
	m.stats.Merges = u
	if u, body, err = readUvarint(body); err != nil {
		return m, err
	}
	m.stats.Evicted = u
	if u, body, err = readUvarint(body); err != nil {
		return m, err
	}
	if len(body) != 0 || u > maxFramePayload || u > uint64(room) {
		return m, errTorn
	}
	m.events = make([]Record, 0, u)
	return m, nil
}

// openSegment creates and activates segment idx.
func (l *Log) openSegment(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)),
		os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("eventstore: %w", err)
	}
	l.active = f
	l.activeIdx = idx
	l.activeSize = 0
	return nil
}

// Append records one stamped event: the ring mutates first, then every
// change it made is journaled and flushed. A journal write failure is
// sticky (returned now and on every later call) but the in-memory state
// keeps advancing, so a daemon with a failed disk degrades to the
// Memory backend's behavior instead of losing its live view.
//
//xvolt:hotpath durable event append; every fleet commit with a log store crosses this
func (l *Log) Append(rec Record) (AppendResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := l.r.append(rec)
	if l.werr != nil {
		return res, l.werr
	}

	l.buf = l.buf[:0]
	if res.Merged {
		l.pbuf = l.pbuf[:0]
		l.pbuf = append(l.pbuf, opMerge)
		l.pbuf = appendMergeBody(l.pbuf, res.Seq, res.Count, res.LastAt)
		l.buf = appendFrame(l.buf, l.pbuf)
	} else {
		l.pbuf = l.pbuf[:0]
		l.pbuf = append(l.pbuf, opAppend)
		journaled := rec
		journaled.Seq = res.Seq
		journaled.Count = 1
		journaled.LastAt = 0
		l.pbuf = appendRecord(l.pbuf, &journaled)
		l.buf = appendFrame(l.buf, l.pbuf)
		if res.Evicted > 0 {
			l.pbuf = l.pbuf[:0]
			l.pbuf = append(l.pbuf, opEvict)
			l.pbuf = appendEvictBody(l.pbuf, res.Evicted)
			l.buf = appendFrame(l.buf, l.pbuf)
		}
	}
	if err := l.writeLocked(l.buf); err != nil {
		l.werr = err
		return res, err
	}
	if l.activeSize >= int64(l.opts.SegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			l.werr = err
			return res, err
		}
	}
	return res, nil
}

// appendMergeBody packs an opMerge body.
func appendMergeBody(buf []byte, seq uint64, count int, lastAt time.Duration) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendVarint(buf, int64(count))
	buf = binary.AppendVarint(buf, int64(lastAt))
	return buf
}

// appendEvictBody packs an opEvict body.
func appendEvictBody(buf []byte, n int) []byte {
	return binary.AppendVarint(buf, int64(n))
}

// writeLocked appends raw frame bytes to the active segment.
func (l *Log) writeLocked(b []byte) error {
	n, err := l.active.Write(b)
	l.activeSize += int64(n)
	if err != nil {
		return fmt.Errorf("eventstore: journal write: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment and opens the next, compacting
// (snapshot + old-segment deletion) when sealed segments would pile up
// past MaxSegments.
func (l *Log) rotateLocked() error {
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("eventstore: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, l.activeIdx)
	next := l.activeIdx + 1
	if err := l.openSegment(next); err != nil {
		return err
	}
	if len(l.sealed) <= l.opts.MaxSegments {
		return nil
	}
	return l.compactLocked()
}

// compactLocked writes a snapshot of the retained ring state at the
// head of the (fresh) active segment, syncs it, and deletes every
// sealed segment. Replay from the snapshot restores the exact live
// state, so compaction never perturbs the replay invariant.
func (l *Log) compactLocked() error {
	l.buf = l.buf[:0]
	l.pbuf = l.pbuf[:0]
	l.pbuf = append(l.pbuf, opSnap)
	l.pbuf = binary.AppendUvarint(l.pbuf, l.r.seq)
	l.pbuf = binary.AppendUvarint(l.pbuf, l.r.stats.Appends)
	l.pbuf = binary.AppendUvarint(l.pbuf, l.r.stats.Merges)
	l.pbuf = binary.AppendUvarint(l.pbuf, l.r.stats.Evicted)
	live := l.r.retained()
	l.pbuf = binary.AppendUvarint(l.pbuf, uint64(len(live)))
	l.buf = appendFrame(l.buf, l.pbuf)
	for i := range live {
		l.pbuf = l.pbuf[:0]
		l.pbuf = append(l.pbuf, opState)
		l.pbuf = appendRecord(l.pbuf, &live[i])
		l.buf = appendFrame(l.buf, l.pbuf)
	}
	if err := l.writeLocked(l.buf); err != nil {
		return err
	}
	// The snapshot must be durable before the history backing it goes
	// away — a crash after deletion with an unsynced snapshot would lose
	// everything.
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("eventstore: syncing snapshot: %w", err)
	}
	for _, idx := range l.sealed {
		if err := os.Remove(filepath.Join(l.dir, segName(idx))); err != nil {
			return fmt.Errorf("eventstore: removing compacted segment: %w", err)
		}
	}
	l.sealed = l.sealed[:0]
	return nil
}

// Sync forces buffered journal bytes to stable storage — the power-loss
// durability point (process crashes are already covered by the per-
// append write).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werr != nil {
		return l.werr
	}
	if err := l.active.Sync(); err != nil {
		l.werr = fmt.Errorf("eventstore: sync: %w", err)
		return l.werr
	}
	return nil
}

// Records returns a copy of the retained records in order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.records()
}

// RecordsSince returns a copy of the retained records with At or
// LastAt ≥ at, in order.
func (l *Log) RecordsSince(at time.Duration) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.recordsSince(at)
}

// RecordsFor returns up to n most recent records of one board, oldest
// first (n ≤ 0 means all).
func (l *Log) RecordsFor(board string, n int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.recordsFor(board, n)
}

// Len returns the retained record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.r.retained())
}

// Stats returns the lifetime counters (restored across reopen).
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.stats
}

// Close syncs and closes the active segment. It returns the sticky
// journal write error, if an earlier call failed, ahead of its own sync
// and close errors: a journal that stopped at a failure is reported when
// it is closed. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	syncErr := l.active.Sync()
	closeErr := l.active.Close()
	l.active = nil
	if l.werr != nil {
		return l.werr
	}
	if syncErr != nil {
		return fmt.Errorf("eventstore: close sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("eventstore: close: %w", closeErr)
	}
	return nil
}
