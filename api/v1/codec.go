// The codec: the board documents (Boards, BoardsDelta) and the hub
// ingest request (IngestRequest) without reflection. The encoders write
// exactly the bytes Marshal (board documents) and json.Marshal (ingest
// requests) write, every board through one encoder built from one field
// list; the decoders take the canonical forms in one pass and hand
// every other input to json.Unmarshal, so both agree with encoding/json
// on every value and every input (the fuzz targets in codec_test.go pin
// this).

package apiv1

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
)

// Framing of the board documents around their board segments, as
// Marshal writes it: a segment is one BoardStatus as AppendBoardStatus
// appends it, at the boards array's indentation.
const (
	boardsKey   = "\n \"boards\": "
	boardsOpen  = "[\n  "
	boardSep    = ",\n  "
	boardsClose = "\n ]\n}\n"
	noBoards    = "[]\n}\n"
	nullBoards  = "null\n}\n"

	deltaOpen  = "{\n \"generation\": "
	deltaSince = ",\n \"since\": "
)

// Buffer sizes: segmentSizeHint is a generous size of one encoded
// board, the room AppendBoardStatus makes before it appends; framingSize
// holds a document's framing, generation and since included.
const (
	segmentSizeHint = 480
	framingSize     = 96
)

// boardFields are BoardStatus's JSON keys in field order: the one field
// list both board layouts below are built from.
var boardFields = [...]string{"id", "corner", "workload", "core", "state", "floor_mv",
	"margin_mv", "voltage_mv", "polls", "runs", "sdc_runs", "ce_events", "ue_events",
	"ac_runs", "boots", "watchdog_recoveries", "power_savings", "last_poll", "frequency_mhz"}

// boardLayout is one way of writing a board object: each key of
// boardFields with the punctuation before it, and the closing bytes.
type boardLayout struct {
	keys  [len(boardFields)]string
	close string
}

func newBoardLayout(open, sep, colon, close string) *boardLayout {
	l := &boardLayout{close: close}
	for i, name := range boardFields {
		before := sep
		if i == 0 {
			before = open
		}
		l.keys[i] = before + `"` + name + `"` + colon
	}
	return l
}

var (
	// indentedBoard is an element of a board document's "boards" array,
	// as json.MarshalIndent(b, "  ", " ") writes it.
	indentedBoard = newBoardLayout("{\n   ", ",\n   ", ": ", "\n  }")
	// compactBoard is a board as json.Marshal writes it.
	compactBoard = newBoardLayout("{", ",", ":", "}")
)

// AppendBoardStatus appends b as json.MarshalIndent(b, "  ", " ")
// writes it: one element of a board document's "boards" array. Strings
// of printable ASCII other than `"`, `\`, `<`, `>` and `&` are written
// as they are; any other string goes through json.Marshal, for its
// escapes. A NaN or infinite Savings returns encoding/json's error, and
// dst unchanged. It makes room for a typical board before it appends,
// so a board's encode grows dst once at most unless its strings are
// long.
//
//xvolt:hotpath board segment encode; every dirty board of every /api/fleet generation crosses this
func AppendBoardStatus(dst []byte, b *BoardStatus) ([]byte, error) {
	return appendBoard(dst, b, indentedBoard)
}

// appendBoard appends b in layout l: the one board encoder, shared by
// the board documents and the ingest request.
//
//xvolt:hotpath board encode; every board of every /api/fleet generation and every push crosses this
func appendBoard(dst []byte, b *BoardStatus, l *boardLayout) ([]byte, error) {
	if math.IsNaN(b.Savings) || math.IsInf(b.Savings, 0) {
		_, err := json.Marshal(b.Savings)
		return dst, err
	}
	k := &l.keys
	dst = slices.Grow(dst, segmentSizeHint)
	dst = append(dst, k[0]...)
	dst = appendString(dst, b.ID)
	dst = append(dst, k[1]...)
	dst = appendString(dst, b.Corner)
	dst = append(dst, k[2]...)
	dst = appendString(dst, b.Workload)
	dst = append(dst, k[3]...)
	dst = strconv.AppendInt(dst, int64(b.Core), 10)
	dst = append(dst, k[4]...)
	dst = appendString(dst, b.State)
	dst = append(dst, k[5]...)
	dst = strconv.AppendInt(dst, int64(b.FloorMV), 10)
	dst = append(dst, k[6]...)
	dst = strconv.AppendInt(dst, int64(b.MarginMV), 10)
	dst = append(dst, k[7]...)
	dst = strconv.AppendInt(dst, int64(b.VoltageMV), 10)
	dst = append(dst, k[8]...)
	dst = strconv.AppendInt(dst, int64(b.Polls), 10)
	dst = append(dst, k[9]...)
	dst = strconv.AppendInt(dst, int64(b.Runs), 10)
	dst = append(dst, k[10]...)
	dst = strconv.AppendInt(dst, int64(b.SDCs), 10)
	dst = append(dst, k[11]...)
	dst = strconv.AppendUint(dst, b.CEs, 10)
	dst = append(dst, k[12]...)
	dst = strconv.AppendUint(dst, b.UEs, 10)
	dst = append(dst, k[13]...)
	dst = strconv.AppendInt(dst, int64(b.ACs), 10)
	dst = append(dst, k[14]...)
	dst = strconv.AppendInt(dst, int64(b.Boots), 10)
	dst = append(dst, k[15]...)
	dst = strconv.AppendInt(dst, int64(b.Recoveries), 10)
	dst = append(dst, k[16]...)
	dst = appendFloat(dst, b.Savings)
	dst = append(dst, k[17]...)
	dst = strconv.AppendInt(dst, int64(b.LastPoll), 10)
	dst = append(dst, k[18]...)
	dst = strconv.AppendInt(dst, int64(b.Frequency), 10)
	return append(dst, l.close...), nil
}

// htmlSafe reports whether encoding/json writes byte c of a string as
// it is: printable ASCII other than the quote, the backslash and the
// three bytes it escapes for HTML.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s quoted as json.Marshal quotes it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !htmlSafe(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64:
// 'f' form, or 'e' form with a one-digit negative exponent unpadded
// outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// AppendBoards appends the Boards document whose boards are segs, each
// as AppendBoardStatus appends it: Marshal's bytes for the document.
func AppendBoards(dst []byte, segs [][]byte) []byte {
	dst = slices.Grow(dst, framingSize+segmentsSize(segs))
	dst = append(dst, '{')
	return appendSegments(dst, segs)
}

// AppendBoardsDelta appends the BoardsDelta document for generation gen
// since since whose boards are segs, as AppendBoards does.
func AppendBoardsDelta(dst []byte, gen, since uint64, segs [][]byte) []byte {
	dst = slices.Grow(dst, framingSize+segmentsSize(segs))
	dst = appendDeltaHead(dst, gen, since)
	return appendSegments(dst, segs)
}

func segmentsSize(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s) + len(boardSep)
	}
	return n
}

// appendDeltaHead appends a BoardsDelta document up to its "boards"
// key's comma.
func appendDeltaHead(dst []byte, gen, since uint64) []byte {
	dst = append(dst, deltaOpen...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, deltaSince...)
	dst = strconv.AppendUint(dst, since, 10)
	return append(dst, ',')
}

// appendSegments appends the "boards" member holding segs and closes
// the document.
func appendSegments(dst []byte, segs [][]byte) []byte {
	dst = append(dst, boardsKey...)
	if len(segs) == 0 {
		return append(dst, noBoards...)
	}
	dst = append(dst, boardsOpen...)
	for i, s := range segs {
		if i > 0 {
			dst = append(dst, boardSep...)
		}
		dst = append(dst, s...)
	}
	return append(dst, boardsClose...)
}

// MarshalBoards returns Marshal(Boards{Boards: boards}), encoded
// without reflection.
func MarshalBoards(boards []BoardStatus) ([]byte, error) {
	dst := make([]byte, 0, framingSize+len(boards)*segmentSizeHint)
	dst = append(dst, '{')
	return appendBoardValues(dst, boards)
}

// MarshalBoardsDelta returns Marshal(BoardsDelta{gen, since, boards}),
// encoded without reflection.
func MarshalBoardsDelta(gen, since uint64, boards []BoardStatus) ([]byte, error) {
	dst := make([]byte, 0, framingSize+len(boards)*segmentSizeHint)
	dst = appendDeltaHead(dst, gen, since)
	return appendBoardValues(dst, boards)
}

// appendBoardValues appends the "boards" member holding boards and
// closes the document; a nil slice is null, as Marshal writes it.
func appendBoardValues(dst []byte, boards []BoardStatus) ([]byte, error) {
	dst = append(dst, boardsKey...)
	switch {
	case boards == nil:
		return append(dst, nullBoards...), nil
	case len(boards) == 0:
		return append(dst, noBoards...), nil
	}
	dst = append(dst, boardsOpen...)
	for i := range boards {
		if i > 0 {
			dst = append(dst, boardSep...)
		}
		var err error
		if dst, err = AppendBoardStatus(dst, &boards[i]); err != nil {
			return nil, err
		}
	}
	return append(dst, boardsClose...), nil
}

// MarshalIngestRequest returns json.Marshal(req)'s bytes: the compact
// body a pusher posts, written without reflection. Boards go through the
// board encoder the board documents use. A NaN or infinite float returns
// encoding/json's error.
func MarshalIngestRequest(req *IngestRequest) ([]byte, error) {
	dst := make([]byte, 0, framingSize+len(req.Boards)*segmentSizeHint)
	dst = append(dst, `{"source":`...)
	dst = appendString(dst, req.Source)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, req.Generation, 10)
	dst = append(dst, `,"virtual_now":`...)
	dst = strconv.AppendInt(dst, int64(req.VirtualNow), 10)
	var err error
	if len(req.Boards) > 0 {
		dst = append(dst, `,"boards":[`...)
		for i := range req.Boards {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendBoard(dst, &req.Boards[i], compactBoard); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	if len(req.Events) > 0 {
		dst = append(dst, `,"events":[`...)
		for i := range req.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEvent(dst, &req.Events[i])
		}
		dst = append(dst, ']')
	}
	if len(req.Transitions) > 0 {
		dst = append(dst, `,"transitions":[`...)
		for i := range req.Transitions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendTransition(dst, &req.Transitions[i])
		}
		dst = append(dst, ']')
	}
	if req.Health != nil {
		dst = append(dst, `,"health":`...)
		if dst, err = appendHealth(dst, req.Health); err != nil {
			return nil, err
		}
	}
	if req.BoardsSince != 0 {
		dst = append(dst, `,"boards_since":`...)
		dst = strconv.AppendUint(dst, req.BoardsSince, 10)
	}
	return append(dst, '}'), nil
}

// appendHealth appends h as json.Marshal writes it.
func appendHealth(dst []byte, h *HealthSummary) ([]byte, error) {
	if math.IsNaN(h.MeanSavings) || math.IsInf(h.MeanSavings, 0) {
		_, err := json.Marshal(h.MeanSavings)
		return nil, err
	}
	dst = append(dst, `{"boards":`...)
	dst = strconv.AppendInt(dst, int64(h.Boards), 10)
	dst = append(dst, `,"polls":`...)
	dst = strconv.AppendUint(dst, h.Polls, 10)
	dst = append(dst, `,"events":`...)
	dst = strconv.AppendInt(dst, int64(h.Events), 10)
	dst = append(dst, `,"dropped_events":`...)
	dst = strconv.AppendUint(dst, h.DroppedEvents, 10)
	dst = append(dst, `,"deduped_events":`...)
	dst = strconv.AppendUint(dst, h.DedupedEvents, 10)
	dst = append(dst, `,"transitions":`...)
	dst = strconv.AppendInt(dst, int64(h.Transitions), 10)
	dst = append(dst, `,"states":`...)
	if h.States == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range h.States {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"state":`...)
			dst = appendString(dst, h.States[i].State)
			dst = append(dst, `,"boards":`...)
			dst = strconv.AppendInt(dst, int64(h.States[i].Boards), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"status":`...)
	dst = appendString(dst, h.Status)
	dst = append(dst, `,"mean_power_savings":`...)
	dst = appendFloat(dst, h.MeanSavings)
	dst = append(dst, `,"virtual_now":`...)
	dst = strconv.AppendInt(dst, int64(h.VirtualNow), 10)
	return append(dst, '}'), nil
}

// appendEvent appends e as json.Marshal writes it.
func appendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, int64(e.At), 10)
	if e.LastAt != 0 {
		dst = append(dst, `,"last_at":`...)
		dst = strconv.AppendInt(dst, int64(e.LastAt), 10)
	}
	dst = append(dst, `,"board":`...)
	dst = appendString(dst, e.Board)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, e.Kind)
	if e.State != "" {
		dst = append(dst, `,"state":`...)
		dst = appendString(dst, e.State)
	}
	if e.MV != 0 {
		dst = append(dst, `,"mv":`...)
		dst = strconv.AppendInt(dst, int64(e.MV), 10)
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(e.Count), 10)
	dst = append(dst, `,"msg":`...)
	dst = appendString(dst, e.Msg)
	return append(dst, '}')
}

// appendTransition appends t as json.Marshal writes it.
func appendTransition(dst []byte, t *Transition) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, t.Seq, 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, int64(t.At), 10)
	dst = append(dst, `,"board":`...)
	dst = appendString(dst, t.Board)
	dst = append(dst, `,"from":`...)
	dst = appendString(dst, t.From)
	dst = append(dst, `,"to":`...)
	dst = appendString(dst, t.To)
	dst = append(dst, `,"reason":`...)
	dst = appendString(dst, t.Reason)
	return append(dst, '}')
}

// DecodeBoards decodes a Boards document. The result and the error are
// json.Unmarshal's into a zero Boards for every input: the canonical
// form is scanned in one pass, and anything else (escapes, non-ASCII,
// unknown or mis-cased keys, null, a repeated key, a number JSON or the
// field's type rejects, trailing data) is decoded by json.Unmarshal.
func DecodeBoards(data []byte) (Boards, error) {
	d := decoder{data: data}
	if v, ok := d.boardsDoc(); ok {
		return v, nil
	}
	var v Boards
	err := json.Unmarshal(data, &v)
	return v, err
}

// DecodeBoardsDelta decodes a BoardsDelta document, as DecodeBoards
// decodes a Boards document.
func DecodeBoardsDelta(data []byte) (BoardsDelta, error) {
	d := decoder{data: data}
	if v, ok := d.deltaDoc(); ok {
		return v, nil
	}
	var v BoardsDelta
	err := json.Unmarshal(data, &v)
	return v, err
}

// DecodeIngestRequest decodes an IngestRequest body, as DecodeBoards
// decodes a Boards document: the result and the error are
// json.Unmarshal's into a zero IngestRequest for every input. The
// scanner takes the canonical form, the boards through the board
// documents' scanner, and leaves any other input to json.Unmarshal
// whole.
func DecodeIngestRequest(data []byte) (IngestRequest, error) {
	d := decoder{data: data}
	if v, ok := d.ingestDoc(); ok {
		return v, nil
	}
	var v IngestRequest
	err := json.Unmarshal(data, &v)
	return v, err
}

// decoder is the one-pass scanner. Every method reports false on input
// it does not take, and the caller then leaves the whole document to
// json.Unmarshal; only whole documents it takes are returned.
type decoder struct {
	data []byte
	off  int
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
	}
}

// consume skips whitespace and takes c if it comes next.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.off == len(d.data)
}

// object scans a JSON object, calling member for each key with the
// scanner at the key's value. member returns false on a key or value it
// does not take.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.rawString()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// topKeys tracks the top-level keys a document has used. A repeated key
// is left to json.Unmarshal, which decodes a second "boards" array into
// the first one's elements instead of replacing them.
type topKeys uint8

func (s *topKeys) first(bit topKeys) bool {
	if *s&bit != 0 {
		return false
	}
	*s |= bit
	return true
}

func (d *decoder) boardsDoc() (v Boards, ok bool) {
	var seen topKeys
	ok = d.object(func(key []byte) bool {
		if string(key) != "boards" || !seen.first(1) {
			return false
		}
		var ok bool
		v.Boards, ok = d.boards()
		return ok
	})
	return v, ok && d.end()
}

func (d *decoder) deltaDoc() (v BoardsDelta, ok bool) {
	var seen topKeys
	ok = d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "generation":
			v.Generation, ok = d.uint()
			return ok && seen.first(1)
		case "since":
			v.Since, ok = d.uint()
			return ok && seen.first(2)
		case "boards":
			v.Boards, ok = d.boards()
			return ok && seen.first(4)
		}
		return false
	})
	return v, ok && d.end()
}

// ingestDoc scans an IngestRequest. A repeated key is left to
// json.Unmarshal, as in the board documents.
//
//xvolt:hotpath ingest decode; every push the hub receives crosses this scan
func (d *decoder) ingestDoc() (v IngestRequest, ok bool) {
	var seen topKeys
	ok = d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "source":
			return d.str(&v.Source) && seen.first(1)
		case "generation":
			v.Generation, ok = d.uint()
			return ok && seen.first(2)
		case "virtual_now":
			return d.duration(&v.VirtualNow) && seen.first(4)
		case "boards":
			v.Boards, ok = d.boards()
			return ok && seen.first(8)
		case "events":
			v.Events, ok = array(d, minEventSize, d.event)
			return ok && seen.first(16)
		case "transitions":
			v.Transitions, ok = array(d, minTransitionSize, d.transition)
			return ok && seen.first(32)
		case "health":
			v.Health, ok = d.health()
			return ok && seen.first(64)
		case "boards_since":
			v.BoardsSince, ok = d.uint()
			return ok && seen.first(128)
		}
		return false
	})
	return v, ok && d.end()
}

// health scans a health summary object. A repeated "states" key is
// left to json.Unmarshal, which decodes the second array into the
// first one's elements.
func (d *decoder) health() (*HealthSummary, bool) {
	h := new(HealthSummary)
	var states bool
	ok := d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "boards":
			return d.int(&h.Boards)
		case "polls":
			h.Polls, ok = d.uint()
			return ok
		case "events":
			return d.int(&h.Events)
		case "dropped_events":
			h.DroppedEvents, ok = d.uint()
			return ok
		case "deduped_events":
			h.DedupedEvents, ok = d.uint()
			return ok
		case "transitions":
			return d.int(&h.Transitions)
		case "states":
			if states {
				return false
			}
			states = true
			h.States, ok = array(d, minStateSize, d.state)
			return ok
		case "status":
			return d.str(&h.Status)
		case "mean_power_savings":
			return d.float(&h.MeanSavings)
		case "virtual_now":
			return d.duration(&h.VirtualNow)
		}
		return false
	})
	return h, ok
}

// state scans one of a health summary's state counts.
func (d *decoder) state(c *StateCount) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "state":
			return d.str(&c.State)
		case "boards":
			return d.int(&c.Boards)
		}
		return false
	})
}

// event scans one event object, its keys in any order.
func (d *decoder) event(e *Event) bool {
	return d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "seq":
			e.Seq, ok = d.uint()
			return ok
		case "at":
			return d.duration(&e.At)
		case "last_at":
			return d.duration(&e.LastAt)
		case "board":
			return d.str(&e.Board)
		case "kind":
			return d.str(&e.Kind)
		case "state":
			return d.str(&e.State)
		case "mv":
			return d.int(&e.MV)
		case "count":
			return d.int(&e.Count)
		case "msg":
			return d.str(&e.Msg)
		}
		return false
	})
}

// transition scans one transition object, its keys in any order.
func (d *decoder) transition(t *Transition) bool {
	return d.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "seq":
			t.Seq, ok = d.uint()
			return ok
		case "at":
			return d.duration(&t.At)
		case "board":
			return d.str(&t.Board)
		case "from":
			return d.str(&t.From)
		case "to":
			return d.str(&t.To)
		case "reason":
			return d.str(&t.Reason)
		}
		return false
	})
}

// Fewer bytes than an element with its keys takes, even compacted: a
// board takes over 200, an event 56, a transition 57 and a state count
// 23.
const (
	minBoardSize      = 64
	minEventSize      = 48
	minTransitionSize = 48
	minStateSize      = 16
)

// boards scans a "boards" array.
//
//xvolt:hotpath board decode; every client/v1 board read and every hub ingest crosses this loop
func (d *decoder) boards() ([]BoardStatus, bool) {
	return array(d, minBoardSize, d.board)
}

// array scans an array of objects, each by elem. It sizes the slice
// from the '{' bytes before the next ']', at least one per element (an
// element holds no ']' outside its strings, so that is the array's end,
// and a later array is not counted), bounded by minSize bytes an
// element: a run of '{' cannot make it allocate more than a few times
// the document's size.
//
//xvolt:hotpath array decode; every board, event and transition a reader or the hub decodes crosses this loop
func array[T any](d *decoder, minSize int, elem func(*T) bool) ([]T, bool) {
	if !d.consume('[') {
		return nil, false
	}
	rest := d.data[d.off:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]T, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minSize))
	if d.consume(']') {
		return out, true
	}
	for {
		var zero T
		out = append(out, zero)
		if !elem(&out[len(out)-1]) {
			return nil, false
		}
		if !d.consume(',') {
			return out, d.consume(']')
		}
	}
}

// board scans one board object, its keys in any order. A key it does not
// know, mis-cased ones included, is left to json.Unmarshal; a repeated
// key overwrites, as it does in json.Unmarshal.
func (d *decoder) board(b *BoardStatus) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return d.str(&b.ID)
		case "corner":
			return d.str(&b.Corner)
		case "workload":
			return d.str(&b.Workload)
		case "core":
			return d.int(&b.Core)
		case "state":
			return d.str(&b.State)
		case "floor_mv":
			return d.int(&b.FloorMV)
		case "margin_mv":
			return d.int(&b.MarginMV)
		case "voltage_mv":
			return d.int(&b.VoltageMV)
		case "polls":
			return d.int(&b.Polls)
		case "runs":
			return d.int(&b.Runs)
		case "sdc_runs":
			return d.int(&b.SDCs)
		case "ce_events":
			var ok bool
			b.CEs, ok = d.uint()
			return ok
		case "ue_events":
			var ok bool
			b.UEs, ok = d.uint()
			return ok
		case "ac_runs":
			return d.int(&b.ACs)
		case "boots":
			return d.int(&b.Boots)
		case "watchdog_recoveries":
			return d.int(&b.Recoveries)
		case "power_savings":
			return d.float(&b.Savings)
		case "last_poll":
			return d.duration(&b.LastPoll)
		case "frequency_mhz":
			return d.int(&b.Frequency)
		}
		return false
	})
}

// rawString scans a string of printable ASCII without escapes and
// returns its bytes.
func (d *decoder) rawString() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.data[d.off:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.data[d.off : d.off+n]
	for _, c := range s {
		if c < 0x20 || c == '\\' || c >= 0x80 {
			return nil, false
		}
	}
	d.off += n + 1
	return s, true
}

func (d *decoder) str(s *string) bool {
	b, ok := d.rawString()
	*s = string(b)
	return ok
}

// maxDigits is the longest integer the scanner takes: any 18 digits fit
// an int64. Longer ones are left to json.Unmarshal's range checks.
const maxDigits = 18

// digits scans a JSON integer's digits: 0, or up to maxDigits digits
// without a leading zero, not followed by a fraction or an exponent
// (json.Unmarshal refuses those for an integer field).
func (d *decoder) digits() (uint64, bool) {
	start := d.off
	var n uint64
	for d.off < len(d.data) && d.data[d.off]-'0' <= 9 {
		n = n*10 + uint64(d.data[d.off]-'0')
		d.off++
	}
	switch k := d.off - start; {
	case k == 0 || k > maxDigits:
		return 0, false
	case k > 1 && d.data[start] == '0':
		return 0, false // a leading zero is no JSON number
	}
	if d.off < len(d.data) {
		switch d.data[d.off] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	return n, true
}

func (d *decoder) uint() (uint64, bool) {
	d.ws()
	return d.digits()
}

func (d *decoder) int64() (int64, bool) {
	d.ws()
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	u, ok := d.digits()
	if neg {
		return -int64(u), ok
	}
	return int64(u), ok
}

func (d *decoder) duration(v *time.Duration) bool {
	n, ok := d.int64()
	*v = time.Duration(n)
	return ok
}

// int scans an int field, refusing a value the platform's int cannot
// hold.
func (d *decoder) int(v *int) bool {
	n, ok := d.int64()
	*v = int(n)
	return ok && int64(*v) == n
}

// float scans a JSON number and parses it as json.Unmarshal does; a
// value out of float64's range is left to json.Unmarshal's error.
func (d *decoder) float(v *float64) bool {
	d.ws()
	start, i := d.off, d.off
	digits := func() int {
		k := i
		for i < len(d.data) && d.data[i]-'0' <= 9 {
			i++
		}
		return i - k
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch n := digits(); {
	case n == 0:
		return false
	case n > 1 && d.data[i-n] == '0':
		return false // a leading zero is no JSON number
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if digits() == 0 {
			return false // "1." is no JSON number
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.data[start:i]), 64)
	if err != nil {
		return false
	}
	*v, d.off = f, i
	return true
}
