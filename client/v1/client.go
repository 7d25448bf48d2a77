// Package clientv1 is the typed Go client for the api/v1 surface served
// by xvolt-fleet and xvolt-hub daemons.
//
// The client is conversation-aware, not just a request helper:
//
//   - ETag revalidation: responses carry generation-keyed ETags; the
//     client keeps each path's last decoded 200 beside its ETag, echoes
//     the ETag as If-None-Match and answers a 304 with a copy of that
//     decode, so steady-state polling transfers and decodes no body at
//     all. Every result is the caller's: its slices are fresh.
//   - Board documents (FleetBoards, FleetDelta) decode through api/v1's
//     reflection-free codec, which agrees with json.Unmarshal on every
//     input.
//   - Wire deltas: FleetDelta asks /api/fleet?since=G for only the
//     boards that committed after generation G, and Generation tracks
//     the X-Fleet-Generation header so callers can run the resumption
//     loop without parsing headers themselves.
//   - Retry with backoff: transport errors and 5xx responses retry with
//     exponential backoff; 4xx fail immediately. POST /api/hub/ingest is
//     safe to retry because the hub upserts by (source, seq).
//   - Context plumbing: every call takes a context; backoff waits abort
//     when it is canceled.
//
// Time is injectable (WithSleep) so deterministic harnesses can drive
// the backoff schedule on a virtual clock.
package clientv1

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	apiv1 "xvolt/api/v1"
)

// Client talks to one daemon's api/v1 surface. Construct with New; safe
// for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	sleep   func(ctx context.Context, d time.Duration) error

	mu    sync.Mutex
	cache map[string]cached // path → its last 200 that carried an ETag
	gen   uint64            // last X-Fleet-Generation observed
}

// cached is a revalidated path's last 200: its ETag and its decode.
type cached struct {
	etag  string
	value any
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed request is retried (default
// 3; 0 disables retries).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the first retry delay; each further retry doubles it
// (default 100ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithSleep substitutes the backoff wait (default: timer + context).
// Deterministic harnesses inject their virtual clock here.
func WithSleep(f func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) { c.sleep = f }
}

// New returns a client for the daemon at base (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		retries: 3,
		backoff: 100 * time.Millisecond,
		sleep:   defaultSleep,
		cache:   map[string]cached{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// defaultSleep waits on a real timer, aborting with the context.
func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError is a non-2xx, non-304 response.
type APIError struct {
	Status int
	Body   string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("clientv1: HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// retryable reports whether the response status merits another attempt.
func retryable(status int) bool { return status >= 500 }

// reply is the outcome of one exchange.
type reply struct {
	status int
	body   []byte
	etag   string
}

// do runs one request with retry/backoff. revalidate sends the path's
// cached ETag as If-None-Match; a 304 comes back as it is, for the
// caller to answer from its cache. reqBody non-nil makes it a POST.
func (c *Client) do(ctx context.Context, path string, reqBody []byte, revalidate bool) (reply, error) {
	for attempt := 0; ; attempt++ {
		r, err := c.once(ctx, path, reqBody, revalidate)
		if err == nil && !retryable(r.status) {
			return r, nil
		}
		if err == nil {
			err = &APIError{Status: r.status, Body: string(r.body)}
		}
		if attempt >= c.retries {
			return reply{status: r.status}, err
		}
		if ctx.Err() != nil {
			return reply{status: r.status}, ctx.Err()
		}
		if err := c.sleep(ctx, c.backoff<<uint(attempt)); err != nil {
			return reply{status: r.status}, err
		}
	}
}

// once runs a single HTTP exchange.
func (c *Client) once(ctx context.Context, path string, reqBody []byte, revalidate bool) (reply, error) {
	method := http.MethodGet
	var rd io.Reader
	if reqBody != nil {
		method = http.MethodPost
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if revalidate {
		c.mu.Lock()
		etag := c.cache[path].etag
		c.mu.Unlock()
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.noteGeneration(resp)
	r := reply{status: resp.StatusCode, etag: resp.Header.Get("ETag")}
	if r.status == http.StatusNotModified {
		_ = resp.Body.Close() // bodyless by protocol
		return r, nil
	}
	// Both tiers declare every body's length: read it into one buffer
	// of that size (at most 1 MiB up front; a body sent without one
	// grows its buffer as it comes).
	r.body, err = apiv1.ReadBody(resp.Body, resp.ContentLength)
	_ = resp.Body.Close() // body fully consumed (or failed) above
	return r, err
}

// noteGeneration records the response's X-Fleet-Generation, if any.
func (c *Client) noteGeneration(resp *http.Response) {
	if g := resp.Header.Get(apiv1.GenerationHeader); g != "" {
		if v, err := strconv.ParseUint(g, 10, 64); err == nil {
			c.mu.Lock()
			if v > c.gen {
				c.gen = v
			}
			c.mu.Unlock()
		}
	}
}

// Generation returns the newest fleet snapshot generation any response
// has advertised, or the generation of a restarted server's delta (see
// FleetDelta) — the value to resume FleetDelta from.
func (c *Client) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// getJSON GETs path with ETag revalidation. A 200 is decoded and, when
// it carries an ETag, cached beside it; a 304 answers with the cached
// decode. The caller gets a copy (clone) either way, so it may change
// the result without changing what the next 304 returns.
func getJSON[T any](ctx context.Context, c *Client, path string, decode func([]byte) (T, error), clone func(T) T) (T, error) {
	var zero T
	r, err := c.do(ctx, path, nil, true)
	if err != nil {
		return zero, err
	}
	switch r.status {
	case http.StatusNotModified:
		c.mu.Lock()
		v, ok := c.cache[path].value.(T)
		c.mu.Unlock()
		if ok {
			return clone(v), nil
		}
		// A 304 with nothing cached: surface it.
	case http.StatusOK:
		v, err := decode(r.body)
		if err != nil || r.etag == "" {
			return v, err
		}
		c.mu.Lock()
		c.cache[path] = cached{etag: r.etag, value: v}
		c.mu.Unlock()
		return clone(v), nil
	}
	return zero, &APIError{Status: r.status, Body: string(r.body)}
}

// unmarshal decodes a document with encoding/json.
func unmarshal[T any](data []byte) (T, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// The clone functions copy a cached decode for a caller: every slice
// fresh, and every pointer to a fresh value.

func cloneBoards(v apiv1.Boards) apiv1.Boards {
	v.Boards = slices.Clone(v.Boards)
	return v
}

func cloneHealth(v apiv1.HealthSummary) apiv1.HealthSummary {
	v.States = slices.Clone(v.States)
	return v
}

func cloneEvents(v apiv1.BoardEvents) apiv1.BoardEvents {
	v.Events = slices.Clone(v.Events)
	return v
}

func cloneAlerts(v apiv1.Alerts) apiv1.Alerts {
	v.Alerts = slices.Clone(v.Alerts)
	for i := range v.Alerts {
		v.Alerts[i].Value = cloneFloat(v.Alerts[i].Value)
	}
	v.Transitions = slices.Clone(v.Transitions)
	for i := range v.Transitions {
		v.Transitions[i].Value = cloneFloat(v.Transitions[i].Value)
	}
	return v
}

func cloneFloat(p *float64) *float64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

func cloneStatus(v apiv1.Status) apiv1.Status { return v }

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	r, err := c.do(ctx, "/healthz", nil, false)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return &APIError{Status: r.status, Body: string(r.body)}
	}
	return nil
}

// FleetBoards fetches the full fleet snapshot. Steady-state calls serve
// from the ETag cache (no body transferred or decoded on 304).
func (c *Client) FleetBoards(ctx context.Context) (apiv1.Boards, error) {
	return getJSON(ctx, c, "/api/fleet", apiv1.DecodeBoards, cloneBoards)
}

// FleetDelta fetches the boards that committed after generation since.
// A nil delta means the server is at that generation — the caller is
// current. A delta whose Generation is below since comes from a server
// that restarted and numbers its generations afresh: it carries every
// board, and Generation() drops to it. Resume loops feed Generation()
// back in.
func (c *Client) FleetDelta(ctx context.Context, since uint64) (*apiv1.BoardsDelta, error) {
	path := "/api/fleet?since=" + strconv.FormatUint(since, 10)
	r, err := c.do(ctx, path, nil, false)
	if err != nil {
		return nil, err
	}
	switch r.status {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
		out, err := apiv1.DecodeBoardsDelta(r.body)
		if err != nil {
			return nil, err
		}
		if out.Generation < since {
			c.mu.Lock()
			c.gen = out.Generation
			c.mu.Unlock()
		}
		return &out, nil
	default:
		return nil, &APIError{Status: r.status, Body: string(r.body)}
	}
}

// FleetHealth fetches the fleet health summary.
func (c *Client) FleetHealth(ctx context.Context) (apiv1.HealthSummary, error) {
	return getJSON(ctx, c, "/api/fleet/health", unmarshal[apiv1.HealthSummary], cloneHealth)
}

// BoardEvents fetches up to n most recent events of one board (n ≤ 0
// takes the server default).
func (c *Client) BoardEvents(ctx context.Context, board string, n int) (apiv1.BoardEvents, error) {
	path := "/api/fleet/" + board + "/events"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	return getJSON(ctx, c, path, unmarshal[apiv1.BoardEvents], cloneEvents)
}

// Alerts fetches the alert engine's rule states and transition log.
func (c *Client) Alerts(ctx context.Context) (apiv1.Alerts, error) {
	return getJSON(ctx, c, "/api/alerts", unmarshal[apiv1.Alerts], cloneAlerts)
}

// Status fetches the single-machine study status.
func (c *Client) Status(ctx context.Context) (apiv1.Status, error) {
	return getJSON(ctx, c, "/api/status", unmarshal[apiv1.Status], cloneStatus)
}

// Ingest pushes one batch of fleet state to a hub. Safe to retry: the
// hub upserts events by (source, seq), so a duplicate push is absorbed.
func (c *Client) Ingest(ctx context.Context, req apiv1.IngestRequest) (apiv1.IngestResponse, error) {
	var out apiv1.IngestResponse
	body, err := apiv1.MarshalIngestRequest(&req)
	if err != nil {
		return out, err
	}
	r, err := c.do(ctx, "/api/hub/ingest", body, false)
	if err != nil {
		return out, err
	}
	if r.status != http.StatusOK {
		return out, &APIError{Status: r.status, Body: string(r.body)}
	}
	err = json.Unmarshal(r.body, &out)
	return out, err
}
