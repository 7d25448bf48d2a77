package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	clientv1 "xvolt/client/v1"
	"xvolt/internal/server"
	"xvolt/internal/trace"
)

// tracing is the armed tracer shared by the benchmark's transports and
// handler wrappers. It stays nil in untraced windows, which makes every
// span call a no-op.
type tracing struct {
	tr    atomic.Pointer[trace.Tracer]
	seq   atomic.Uint64
	links sync.Map // parentHeader token → the client round-trip span
}

// parentHeader carries a client round-trip span to the handler wrapper
// in the same process, so server and hub spans join the request's trace.
const parentHeader = "X-Perfbench-Span"

// meteredTransport counts every round trip, status and body byte for
// the work-count check and, while a tracer is armed, records each round
// trip (response body read included) as a child span of the call.
type meteredTransport struct {
	base http.RoundTripper
	t    *tracing
	name string // round-trip span name

	trips, ok, notModified, other atomic.Int64
	sent, received                atomic.Int64
}

func newTransport(t *tracing, name string) *meteredTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.Proxy = nil
	base.MaxConnsPerHost = 1
	base.MaxIdleConnsPerHost = 1
	return &meteredTransport{base: base, t: t, name: name}
}

// newClient returns a client/v1 client on its own single-connection
// transport whose round trips are traced as "client.roundtrip".
func newClient(url string, t *tracing) (*clientv1.Client, *meteredTransport) {
	mt := newTransport(t, "client.roundtrip")
	return clientv1.New(url, clientv1.WithHTTPClient(&http.Client{Transport: mt})), mt
}

func (m *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	m.trips.Add(1)
	if req.ContentLength > 0 {
		m.sent.Add(req.ContentLength)
	}
	var span *trace.ActiveSpan
	var token string
	if tr := m.t.tr.Load(); tr != nil {
		_, span = tr.StartSpan(req.Context(), m.name)
		token = strconv.FormatUint(m.t.seq.Add(1), 10)
		m.t.links.Store(token, span)
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, token)
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		m.finish(token, span)
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		m.ok.Add(1)
	case http.StatusNotModified:
		m.notModified.Add(1)
	default:
		m.other.Add(1)
	}
	resp.Body = &meteredBody{rc: resp.Body, m: m, token: token, span: span}
	return resp, nil
}

func (m *meteredTransport) finish(token string, span *trace.ActiveSpan) {
	if token != "" {
		m.t.links.Delete(token)
	}
	span.End()
}

func (m *meteredTransport) close() { m.base.(*http.Transport).CloseIdleConnections() }

// meteredBody counts body bytes and ends the round-trip span on Close.
type meteredBody struct {
	rc    io.ReadCloser
	m     *meteredTransport
	token string
	span  *trace.ActiveSpan
	done  bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.m.received.Add(int64(n))
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.rc.Close()
	if !b.done {
		b.done = true
		b.m.finish(b.token, b.span)
	}
	return err
}

// transportMark is a snapshot of one transport's deterministic counters.
type transportMark struct{ trips, ok, notModified, other, sent, received int64 }

func (m *meteredTransport) mark() transportMark {
	return transportMark{m.trips.Load(), m.ok.Load(), m.notModified.Load(), m.other.Load(), m.sent.Load(), m.received.Load()}
}

func (a transportMark) sub(b transportMark) transportMark {
	return transportMark{a.trips - b.trips, a.ok - b.ok, a.notModified - b.notModified,
		a.other - b.other, a.sent - b.sent, a.received - b.received}
}

func (a transportMark) kvs(prefix string) []kv {
	return []kv{
		{prefix + "round_trips", a.trips},
		{prefix + "status_200", a.ok},
		{prefix + "status_304", a.notModified},
		{prefix + "status_other", a.other},
		{prefix + "request_bytes", a.sent},
		{prefix + "response_bytes", a.received},
	}
}

// tracedHandler wraps a daemon's handler: while a tracer is armed, each
// request becomes a "<layer>.<route>" span under the client's round trip,
// carrying its status code and response bytes as attributes.
func tracedHandler(next http.Handler, t *tracing, layer string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		if p, ok := t.links.Load(r.Header.Get(parentHeader)); ok {
			ctx = trace.ContextWith(ctx, p.(*trace.ActiveSpan))
		}
		_, span := tr.StartSpan(ctx, layer+"."+routeOf(r))
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		span.SetAttr("code", strconv.Itoa(cw.code))
		span.SetAttr("bytes", strconv.Itoa(cw.n))
		span.End()
	})
}

// routeOf names the api/v1 route a request hits.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/hub/ingest":
		return "ingest"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case p == "/api/fleet/health":
		return "health"
	case p == "/api/fleet" && r.URL.Query().Has("since"):
		return "delta"
	case p == "/api/fleet":
		return "snapshot"
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	code, n int
}

func (w *countingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// listener is one loopback server run through server.Serve, the daemons'
// listener lifecycle.
type listener struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &listener{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { l.done <- server.Serve(ctx, ln, h, time.Second) }()
	return l, nil
}

// close shuts the server down and waits for it to return.
func (l *listener) close() error {
	if l == nil {
		return nil
	}
	l.cancel()
	return <-l.done
}
