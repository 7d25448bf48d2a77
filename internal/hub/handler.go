package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/obs"
)

// maxIngestBody bounds one POST /api/hub/ingest request; a full push
// from a large fleet is a few MB, so 16 MiB leaves generous headroom
// without letting a client balloon the hub's heap.
const maxIngestBody = 16 << 20

// Handler returns the hub's HTTP surface. It mirrors the fleet daemon's
// /api/* shape — clientv1 works unchanged against either — and adds the
// hub-only /api/hub/* routes. reg (may be nil) backs GET /metrics.
func (h *Hub) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.Handler(reg).ServeHTTP(w, r)
	})
	mux.HandleFunc("/api/fleet", h.handleBoards)
	mux.HandleFunc("/api/fleet/health", h.handleHealth)
	mux.HandleFunc("/api/fleet/{source}/{board}/events", h.handleBoardEvents)
	mux.HandleFunc("/api/hub/sources", h.handleSources)
	mux.HandleFunc("/api/hub/sources/{source}/dump", h.handleDump)
	mux.HandleFunc("POST /api/hub/ingest", h.handleIngest)
	mux.HandleFunc("/", h.handleIndex)
	return mux
}

// notModified stamps the generation-keyed ETag and answers 304 when the
// client already holds it.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// handleBoards serves /api/fleet. Both 304 answers — an ETag match, and
// ?since= at or past the current generation — are decided from the
// generation alone, before any board is copied.
func (h *Hub) handleBoards(w http.ResponseWriter, r *http.Request) {
	gen := h.Generation()
	w.Header().Set(apiv1.GenerationHeader, strconv.FormatUint(gen, 10))
	if notModified(w, r, fmt.Sprintf("\"hub-%d\"", gen)) {
		return
	}
	// ?since=<generation> follows the fleet delta protocol: only the
	// boards whose status changed after that hub generation.
	var since uint64
	sinceStr := r.URL.Query().Get("since")
	if sinceStr != "" {
		var err error
		if since, err = strconv.ParseUint(sinceStr, 10, 64); err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		if since >= gen {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	// An ingest may have landed since the pre-check; re-stamp the headers
	// so they always match the body served.
	gen, boards := h.BoardsSince(since)
	w.Header().Set("ETag", fmt.Sprintf("\"hub-%d\"", gen))
	w.Header().Set(apiv1.GenerationHeader, strconv.FormatUint(gen, 10))
	if sinceStr != "" {
		if boards == nil {
			boards = []apiv1.BoardStatus{} // an empty delta renders "boards": [], as the fleet's does
		}
		writeJSON(w, apiv1.BoardsDelta{Generation: gen, Since: since, Boards: boards})
		return
	}
	writeJSON(w, apiv1.Boards{Boards: boards})
}

func (h *Hub) handleHealth(w http.ResponseWriter, r *http.Request) {
	if notModified(w, r, fmt.Sprintf("\"hub-health-%d\"", h.Generation())) {
		return
	}
	writeJSON(w, h.Health())
}

// handleBoardEvents serves one source's board event tail; an ETag match
// answers 304 before the events are scanned.
func (h *Hub) handleBoardEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	sourceName, board := r.PathValue("source"), r.PathValue("board")
	if !h.hasBoard(sourceName, board) {
		http.Error(w, "no such source/board", http.StatusNotFound)
		return
	}
	if notModified(w, r, fmt.Sprintf("\"hub-ev-%d\"", h.Generation())) {
		return
	}
	doc, _ := h.BoardEvents(sourceName, board, n) // known: the hub never drops a board
	writeJSON(w, doc)
}

func (h *Hub) handleSources(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, apiv1.HubSources{Sources: h.Sources()})
}

func (h *Hub) handleDump(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := h.WriteSourceDump(w, r.PathValue("source")); err != nil {
		if errors.Is(err, ErrNoSource) {
			http.Error(w, err.Error(), http.StatusNotFound)
		}
		// Mid-stream write errors leave a truncated body; nothing to do.
	}
}

func (h *Hub) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req apiv1.IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad ingest body: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := h.Ingest(req)
	if errors.Is(err, ErrUnknownBaseline) {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set(apiv1.GenerationHeader, strconv.FormatUint(h.Generation(), 10))
	writeJSON(w, resp)
}

func (h *Hub) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><title>xvolt-hub</title>
<h1>xvolt aggregation hub</h1>
<p>%d sources</p>
<ul>
<li><a href="/api/fleet">global boards</a></li>
<li><a href="/api/fleet/health">merged health</a></li>
<li><a href="/api/hub/sources">sources</a></li>
<li><a href="/metrics">metrics (Prometheus)</a></li>
</ul>`, len(h.Sources()))
}

// writeJSON streams v in the api/v1 canonical encoding (the same
// json.Encoder SetIndent("", " ") form the fleet server uses, so byte
// parity holds across tiers).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
