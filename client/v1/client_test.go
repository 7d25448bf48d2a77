package clientv1

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/server"
)

// statusRecorder counts upstream response codes so tests can prove the
// 304 path was exercised on the wire, not just absorbed client-side.
type statusRecorder struct {
	h    http.Handler
	s200 atomic.Int64
	s304 atomic.Int64
}

func (r *statusRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	sw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
	r.h.ServeHTTP(sw, req)
	switch sw.code {
	case http.StatusOK:
		r.s200.Add(1)
	case http.StatusNotModified:
		r.s304.Add(1)
	}
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// newFleetServer stands up a real fleet behind the real server handler.
func newFleetServer(t *testing.T) (*fleet.Manager, *statusRecorder, *httptest.Server) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Boards: 3, Seed: 5, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(nil)
	srv.SetFleet(m)
	rec := &statusRecorder{h: srv.Handler()}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	return m, rec, ts
}

// TestDeltaResumption drives the full client conversation: bootstrap
// snapshot, generation tracking via X-Fleet-Generation, wire deltas
// after commits, and "already current" probes answering nil.
func TestDeltaResumption(t *testing.T) {
	m, _, ts := newFleetServer(t)
	c := New(ts.URL)
	ctx := context.Background()

	boards, err := c.FleetBoards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(boards.Boards) != 3 {
		t.Fatalf("bootstrap returned %d boards", len(boards.Boards))
	}
	gen := c.Generation()
	if gen == 0 {
		t.Fatal("client did not capture X-Fleet-Generation")
	}

	// Current probe: no commits since gen → nil delta.
	delta, err := c.FleetDelta(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	if delta != nil {
		t.Fatalf("delta while current = %+v, want nil", delta)
	}

	m.Run(10)
	delta, err = c.FleetDelta(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatal("no delta after commits")
	}
	if delta.Since != gen || delta.Generation <= gen {
		t.Errorf("delta stamps since=%d gen=%d, want since=%d gen>%d",
			delta.Since, delta.Generation, gen, gen)
	}
	if len(delta.Boards) == 0 {
		t.Error("delta carries no boards after 10 polls")
	}
	if c.Generation() != delta.Generation {
		t.Errorf("Generation() = %d, want %d", c.Generation(), delta.Generation)
	}
	if d2, err := c.FleetDelta(ctx, c.Generation()); err != nil || d2 != nil {
		t.Errorf("resumed probe = (%+v, %v), want (nil, nil)", d2, err)
	}

	h, err := c.FleetHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Boards != 3 || h.Polls != 10 {
		t.Errorf("health = %d boards %d polls, want 3/10", h.Boards, h.Polls)
	}

	ev, err := c.BoardEvents(ctx, "board-00", 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Board != "board-00" || len(ev.Events) == 0 {
		t.Errorf("events = %+v, want board-00 with events", ev)
	}
	if _, err := c.BoardEvents(ctx, "board-99", 5); err == nil {
		t.Error("unknown board did not error")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Errorf("unknown board error = %v, want 404 APIError", err)
		}
	}
}

// TestDeltaAfterServerRestart: a restarted server numbers its
// generations afresh. A client holding a later generation than the new
// server has reached gets every board from it, not a 304, and resumes
// from the new server's generation.
func TestDeltaAfterServerRestart(t *testing.T) {
	var handler atomic.Value // http.Handler of the server behind the URL
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	start := func() *fleet.Manager {
		m, err := fleet.New(fleet.Config{Boards: 3, Seed: 5, ConfirmRuns: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		srv := server.New(nil)
		srv.SetFleet(m)
		handler.Store(srv.Handler())
		return m
	}
	c := New(ts.URL)
	ctx := context.Background()

	before := start()
	for i := 0; i < 10; i++ {
		before.Run(1)
	}
	if _, err := c.FleetBoards(ctx); err != nil {
		t.Fatal(err)
	}
	held := c.Generation()
	if held != 11 {
		t.Fatalf("client holds generation %d, want 11", held)
	}

	after := start()
	after.Run(1)
	delta, err := c.FleetDelta(ctx, held)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatalf("?since=%d at generation %d answered not modified", held, after.Generation())
	}
	if delta.Generation != 2 || delta.Since != held || len(delta.Boards) != 3 {
		t.Errorf("restart delta: generation %d since %d with %d boards, want 2, %d with 3",
			delta.Generation, delta.Since, len(delta.Boards), held)
	}
	if got := c.Generation(); got != 2 {
		t.Errorf("Generation() after the restart delta = %d, want 2", got)
	}
	if d, err := c.FleetDelta(ctx, c.Generation()); err != nil || d != nil {
		t.Errorf("probe at the restarted server's generation = (%+v, %v), want (nil, nil)", d, err)
	}
	after.Run(1)
	if d, err := c.FleetDelta(ctx, c.Generation()); err != nil || d == nil || d.Since != 2 || d.Generation != 3 {
		t.Errorf("resumed delta = (%+v, %v), want since 2 generation 3", d, err)
	}
}

// TestETagRevalidation proves the second identical fetch travels as a
// bodyless 304 on the wire while the client still returns the document.
func TestETagRevalidation(t *testing.T) {
	_, rec, ts := newFleetServer(t)
	c := New(ts.URL)
	ctx := context.Background()

	first, err := c.FleetHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.s304.Load(); got != 0 {
		t.Fatalf("unexpected 304 before revalidation: %d", got)
	}
	second, err := c.FleetHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.s304.Load(); got != 1 {
		t.Fatalf("revalidation did not 304 on the wire (saw %d)", got)
	}
	if first.Boards != second.Boards || first.Polls != second.Polls {
		t.Errorf("cached decode diverges: %+v vs %+v", first, second)
	}
}

// TestNotModifiedServesCachedDecode: after a 200, every revalidating
// getter answers its 304s with the decode it cached, equal to the first
// result, and a caller that changes a returned value (its slices, its
// pointers) does not change what the next 304 returns.
func TestNotModifiedServesCachedDecode(t *testing.T) {
	value := 0.25
	docs := map[string]any{
		"/api/fleet": apiv1.Boards{Boards: []apiv1.BoardStatus{
			{ID: "board-00", State: "healthy", Savings: 0.1}, {ID: "board-01", State: "degraded"}}},
		"/api/fleet/health": apiv1.HealthSummary{Boards: 2, Status: "degraded",
			States: []apiv1.StateCount{{State: "healthy", Boards: 1}, {State: "degraded", Boards: 1}}},
		"/api/fleet/board-01/events?n=2": apiv1.BoardEvents{Board: "board-01", Events: []apiv1.Event{
			{Seq: 3, Board: "board-01", Kind: "sdc-observed", Count: 1, Msg: "mismatch"}}},
		"/api/alerts": apiv1.Alerts{
			Alerts:      []apiv1.Alert{{Rule: "r", Kind: "threshold", State: "firing", Value: &value}},
			Firing:      1,
			Transitions: []apiv1.AlertTransition{{Seq: 1, Rule: "r", To: "firing", Value: &value}}},
		"/api/status": apiv1.Status{Chip: "TTT", Frequencies: [4]int{2400, 300, 300, 300}},
	}
	var s200, s304 atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, ok := docs[r.URL.RequestURI()]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("ETag", `"doc-1"`)
		if r.Header.Get("If-None-Match") == `"doc-1"` {
			s304.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		body, err := apiv1.Marshal(doc)
		if err != nil {
			t.Error(err)
		}
		s200.Add(1)
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()

	getters := []struct {
		path   string
		get    func() (any, error)
		mutate func(any)
	}{
		{"/api/fleet", func() (any, error) { return c.FleetBoards(ctx) }, func(v any) {
			b := v.(apiv1.Boards)
			b.Boards[0].ID, b.Boards[1].Savings = "changed", 9
		}},
		{"/api/fleet/health", func() (any, error) { return c.FleetHealth(ctx) }, func(v any) {
			v.(apiv1.HealthSummary).States[0].Boards = 99
		}},
		{"/api/fleet/board-01/events?n=2", func() (any, error) { return c.BoardEvents(ctx, "board-01", 2) }, func(v any) {
			v.(apiv1.BoardEvents).Events[0].Msg = "changed"
		}},
		{"/api/alerts", func() (any, error) { return c.Alerts(ctx) }, func(v any) {
			a := v.(apiv1.Alerts)
			a.Alerts[0].State = "changed"
			*a.Alerts[0].Value = 9
			*a.Transitions[0].Value = 9
			a.Transitions[0].To = "changed"
		}},
		{"/api/status", func() (any, error) { return c.Status(ctx) }, func(v any) {}},
	}
	for _, g := range getters {
		want := docs[g.path]
		for i := 0; i < 3; i++ {
			got, err := g.get()
			if err != nil {
				t.Fatalf("%s call %d: %v", g.path, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s call %d:\n got %+v\nwant %+v", g.path, i, got, want)
			}
			g.mutate(got)
		}
	}
	if n200, n304 := s200.Load(), s304.Load(); n200 != 5 || n304 != 10 {
		t.Errorf("server answered %d 200s and %d 304s, want 5 and 10", n200, n304)
	}
}

// TestRetryBackoff injects 5xx failures and checks the retry schedule:
// exponential delays through the injected sleep, success once the
// server recovers, and no body-level retries on 4xx.
func TestRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL,
		WithRetries(3),
		WithBackoff(10*time.Millisecond),
		WithSleep(func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		}))
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after recovery: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Errorf("backoff schedule %v, want %v", delays, want)
	}

	// Exhaustion: a permanently failing server errors after retries.
	calls.Store(-1000)
	var n int
	c2 := New(ts.URL, WithRetries(2), WithSleep(func(ctx context.Context, d time.Duration) error {
		n++
		return nil
	}))
	err := c2.Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("exhausted retries = %v, want 500 APIError", err)
	}
	if n != 2 {
		t.Errorf("slept %d times, want 2", n)
	}

	// 4xx: immediate failure, no retries, no sleeps.
	ts404 := httptest.NewServer(http.NotFoundHandler())
	defer ts404.Close()
	var slept bool
	c3 := New(ts404.URL, WithSleep(func(ctx context.Context, d time.Duration) error {
		slept = true
		return nil
	}))
	if err := c3.Healthz(context.Background()); err == nil {
		t.Error("404 did not error")
	}
	if slept {
		t.Error("client retried a 4xx")
	}
}

// TestContextCancellation: a canceled context aborts both in-flight
// requests and backoff waits.
func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	c := New(ts.URL, WithRetries(0))
	go func() { done <- c.Healthz(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("canceled request returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request did not return")
	}

	// Cancellation during backoff: the injected sleep honors ctx.
	ts500 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer ts500.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	c2 := New(ts500.URL, WithRetries(5), WithSleep(func(ctx context.Context, d time.Duration) error {
		cancel2()
		return ctx.Err()
	}))
	if err := c2.Healthz(ctx2); !errors.Is(err, context.Canceled) {
		t.Errorf("backoff cancellation = %v, want context.Canceled", err)
	}
}
