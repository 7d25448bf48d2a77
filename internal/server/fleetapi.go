package server

import (
	"net/http"
	"strconv"
	"sync"

	apiv1 "xvolt/api/v1"
)

// FleetReader is what the api/v1 fleet routes read. A fleet daemon's
// *fleet.Manager and the hub's merged *hub.Hub both satisfy it. Every
// method must be safe for concurrent use, and Generation must change
// whenever anything the other methods return changes: the ETags and the
// FleetAPI caches are keyed on it.
type FleetReader interface {
	Generation() uint64
	// BoardsJSON returns the generation and the /api/fleet document.
	BoardsJSON() (uint64, []byte, error)
	// BoardsDeltaJSON returns the generation and the /api/fleet?since=
	// document; a nil body means since is the generation, so the client
	// is current (304). A since past the generation numbers another
	// run's generations and gets every board.
	BoardsDeltaJSON(since uint64) (uint64, []byte, error)
	// HasBoard reports whether id names a board. Every events request
	// asks before its ETag check, so it must be cheap.
	HasBoard(id string) bool
	// HealthAPIv1 returns the /api/fleet/health document.
	HealthAPIv1() apiv1.HealthSummary
	// EventsAPIv1 returns up to n of the board's most recent events,
	// oldest first (n ≤ 0 means all).
	EventsAPIv1(id string, n int) []apiv1.Event
}

// FleetAPI serves the three api/v1 fleet routes from one FleetReader:
// /api/fleet (full, or a delta with ?since=), /api/fleet/health, and a
// board's event tail. Both tiers serve through it — the fleet daemon's
// Server and the hub — so they answer identical requests identically.
//
// Every route checks the request before its ETag: an unknown board is
// 404 and a malformed ?n= is 400 even when If-None-Match matches. Only
// /api/fleet answers a matching ETag before it parses ?since=. The 304
// itself is decided from the generation alone, before any state is
// copied.
//
// State changes only when the generation does, so the health body and
// a small ring of event-tail bodies are cached per generation; between
// commits every request is served from these buffers. Board documents
// are the reader's to cache: the fleet re-encodes only changed boards.
type FleetAPI struct {
	f FleetReader
	// ETag prefixes: a tier's name keeps a client that moves between
	// tiers from revalidating one tier's body against the other's.
	boardsTag, healthTag, eventsTag string

	mu        sync.Mutex
	healthGen uint64
	health    []byte // encoded health document at healthGen
	events    [eventsCacheSlots]eventsCacheEntry
	evNext    int
}

// eventsCacheSlots bounds the per-board events response cache; a small
// ring is enough because loadgen-style traffic concentrates on a few hot
// boards per generation.
const eventsCacheSlots = 8

// eventsCacheEntry is one cached event-tail body.
type eventsCacheEntry struct {
	gen   uint64
	board string
	n     int
	body  []byte
}

// errNoBoard is the 404 body for an unknown board on either tier.
const errNoBoard = "fleet: no such board"

// NewFleetAPI serves f under tier, the ETag prefix: "fleet" for a fleet
// daemon, "hub" for the hub.
func NewFleetAPI(tier string, f FleetReader) *FleetAPI {
	return &FleetAPI{f: f,
		boardsTag: tier + "-", healthTag: tier + "-health-", eventsTag: tier + "-ev-"}
}

// etag renders one generation-keyed entity tag.
func etag(prefix string, gen uint64) string {
	return `"` + prefix + strconv.FormatUint(gen, 10) + `"`
}

// notModified writes the ETag and, when the client already holds it,
// answers 304.
func notModified(w http.ResponseWriter, r *http.Request, tag string) bool {
	w.Header().Set("ETag", tag)
	if r.Header.Get("If-None-Match") == tag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// writeBody writes a JSON body under its ETag and Content-Length; a nil
// body (a delta for a client that is already current) answers 304.
func writeBody(w http.ResponseWriter, tag string, body []byte) {
	w.Header().Set("ETag", tag)
	if body == nil {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSONBody(w, body)
}

// atGeneration calls read until the generation is the same before and
// after it, and returns the result with that generation: a commit may
// land during the read, and a cache key must match the state it labels.
func atGeneration[T any](f FleetReader, read func() T) (T, uint64) {
	gen := f.Generation()
	for {
		v := read()
		g := f.Generation()
		if g == gen {
			return v, gen
		}
		gen = g
	}
}

// ServeBoards serves /api/fleet. ?since=<generation> asks for a delta:
// only the boards that committed after that generation, which keeps the
// endpoint flat in fleet size. X-Fleet-Generation names the generation
// to resume from, on full responses too, so the first poll bootstraps
// the loop.
func (a *FleetAPI) ServeBoards(w http.ResponseWriter, r *http.Request) {
	if notModified(w, r, etag(a.boardsTag, a.f.Generation())) {
		return
	}
	var (
		gen  uint64
		body []byte
		err  error
	)
	if q := r.URL.Query().Get("since"); q != "" {
		since, perr := strconv.ParseUint(q, 10, 64)
		if perr != nil {
			http.Error(w, "bad since: "+perr.Error(), http.StatusBadRequest)
			return
		}
		gen, body, err = a.f.BoardsDeltaJSON(since)
	} else {
		gen, body, err = a.f.BoardsJSON()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The reader may have observed a newer commit than the pre-check;
	// re-stamp so the headers always match the body served.
	w.Header().Set(apiv1.GenerationHeader, strconv.FormatUint(gen, 10))
	writeBody(w, etag(a.boardsTag, gen), body)
}

// ServeHealth serves /api/fleet/health.
func (a *FleetAPI) ServeHealth(w http.ResponseWriter, r *http.Request) {
	if notModified(w, r, etag(a.healthTag, a.f.Generation())) {
		return
	}
	gen, body, err := a.healthBody()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, etag(a.healthTag, gen), body)
}

// ServeEvents serves one board's event tail; ?n= bounds it (default
// 100).
func (a *FleetAPI) ServeEvents(w http.ResponseWriter, r *http.Request, board string) {
	if !a.f.HasBoard(board) {
		http.Error(w, errNoBoard, http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	if notModified(w, r, etag(a.eventsTag, a.f.Generation())) {
		return
	}
	gen, body, err := a.eventsBody(board, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, etag(a.eventsTag, gen), body)
}

// healthBody returns the encoded health document for the current
// generation; a cache hit reads no reader state beyond the generation.
func (a *FleetAPI) healthBody() (uint64, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if gen := a.f.Generation(); a.health != nil && a.healthGen == gen {
		return gen, a.health, nil
	}
	h, gen := atGeneration(a.f, a.f.HealthAPIv1)
	body, err := apiv1.Marshal(h)
	if err != nil {
		return gen, nil, err
	}
	a.healthGen, a.health = gen, body
	return gen, body, nil
}

// eventsBody returns the encoded event tail of one board, served from a
// small (generation, board, n)-keyed ring so repeated queries against
// hot boards do not re-read the events between commits.
func (a *FleetAPI) eventsBody(board string, n int) (uint64, []byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	gen := a.f.Generation()
	for i := range a.events {
		e := &a.events[i]
		if e.body != nil && e.gen == gen && e.board == board && e.n == n {
			return gen, e.body, nil
		}
	}
	events, gen := atGeneration(a.f, func() []apiv1.Event { return a.f.EventsAPIv1(board, n) })
	if events == nil {
		events = []apiv1.Event{} // a board without events renders "events": []
	}
	body, err := apiv1.Marshal(apiv1.BoardEvents{Board: board, Events: events})
	if err != nil {
		return gen, nil, err
	}
	a.events[a.evNext] = eventsCacheEntry{gen: gen, board: board, n: n, body: body}
	a.evNext = (a.evNext + 1) % eventsCacheSlots
	return gen, body, nil
}
