package hub

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/obs"
	"xvolt/internal/server"
)

// maxIngestBody bounds one POST /api/hub/ingest request; a full push
// from a large fleet is a few MB, so 16 MiB leaves generous headroom
// without letting a client balloon the hub's heap.
const maxIngestBody = 16 << 20

// The hub serves the api/v1 fleet routes through the fleet daemon's own
// implementation, over the merged view.
var (
	_ server.FleetReader = (*Hub)(nil)
	_ server.FleetReader = fleet.Fleet(nil) // what a pusher reads, a server can serve
)

// Handler returns the hub's HTTP surface: the fleet daemon's /api/fleet
// routes, served by server.FleetAPI under the ETag prefix "hub" with
// board events at /api/fleet/{source}/{board}/events (so clientv1 works
// unchanged against either tier), plus the hub-only /api/hub/* routes.
// reg (may be nil) backs GET /metrics.
func (h *Hub) Handler(reg *obs.Registry) http.Handler {
	api := server.NewFleetAPI("hub", h)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.Handler(reg).ServeHTTP(w, r)
	})
	mux.HandleFunc("/api/fleet", api.ServeBoards)
	mux.HandleFunc("/api/fleet/health", api.ServeHealth)
	mux.HandleFunc("/api/fleet/{source}/{board}/events", func(w http.ResponseWriter, r *http.Request) {
		api.ServeEvents(w, r, r.PathValue("source")+"/"+r.PathValue("board"))
	})
	mux.HandleFunc("/api/hub/sources", h.handleSources)
	mux.HandleFunc("/api/hub/sources/{source}/dump", h.handleDump)
	mux.HandleFunc("POST /api/hub/ingest", h.handleIngest)
	mux.HandleFunc("/", h.handleIndex)
	return mux
}

func (h *Hub) handleSources(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, apiv1.HubSources{Sources: h.Sources()})
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

// handleIngest decodes one push through the api/v1 codec. The body is
// exactly one request: anything after it but whitespace (a second
// request, garbage) refuses the whole body with 400, as json.Unmarshal
// refuses it.
func (h *Hub) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxIngestBody)
	if err != nil {
		http.Error(w, "bad ingest body: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := apiv1.DecodeIngestRequest(body)
	if err != nil {
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
	server.WriteJSON(w, resp)
}

// readBody reads r's whole body, at most limit bytes, through
// apiv1.ReadBody, the sized reader client/v1 reads responses with: one
// buffer sized from a Content-Length under the limit, up to the 1 MiB
// preallocation cap, so a client cannot hold 16 MiB of the hub's heap
// by declaring a body it never sends.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	declared := r.ContentLength
	if declared >= limit {
		declared = -1 // the limit refuses it before the buffer fills
	}
	return apiv1.ReadBody(http.MaxBytesReader(w, r.Body, limit), declared)
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
