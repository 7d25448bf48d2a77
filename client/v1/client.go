// Package clientv1 is the typed Go client for the api/v1 surface served
// by xvolt-fleet and xvolt-hub daemons.
//
// The client is conversation-aware, not just a request helper:
//
//   - ETag revalidation: responses carry generation-keyed ETags; the
//     client echoes them as If-None-Match and serves its cached decode
//     on a 304, so steady-state polling transfers no body at all.
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

	mu     sync.Mutex
	etags  map[string]string // path → last ETag
	bodies map[string][]byte // path → last 200 body (the ETag's value)
	gen    uint64            // last X-Fleet-Generation observed
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
		etags:   map[string]string{},
		bodies:  map[string][]byte{},
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

// do runs one request with retry/backoff, returning the status, body
// and ETag. revalidate adds If-None-Match from the path cache; a 304
// returns the cached body with status 200 semantics preserved by the
// caller. reqBody non-nil makes it a POST.
func (c *Client) do(ctx context.Context, path string, reqBody []byte, revalidate bool) (status int, body []byte, err error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, body, lastErr = c.once(ctx, path, reqBody, revalidate)
		if lastErr == nil && !retryable(status) {
			return status, body, nil
		}
		if lastErr == nil {
			lastErr = &APIError{Status: status, Body: string(body)}
		}
		if attempt >= c.retries {
			return status, nil, lastErr
		}
		if ctx.Err() != nil {
			return status, nil, ctx.Err()
		}
		if err := c.sleep(ctx, c.backoff<<uint(attempt)); err != nil {
			return status, nil, err
		}
	}
}

// once runs a single HTTP exchange.
func (c *Client) once(ctx context.Context, path string, reqBody []byte, revalidate bool) (int, []byte, error) {
	method := http.MethodGet
	var rd io.Reader
	if reqBody != nil {
		method = http.MethodPost
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var etag string
	if revalidate {
		c.mu.Lock()
		etag = c.etags[path]
		c.mu.Unlock()
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.noteGeneration(resp)

	if resp.StatusCode == http.StatusNotModified {
		_ = resp.Body.Close() // bodyless by protocol
		c.mu.Lock()
		cached := c.bodies[path]
		c.mu.Unlock()
		if cached == nil {
			// A 304 with no cache (e.g. a delta probe): surface as-is.
			return resp.StatusCode, nil, nil
		}
		return http.StatusOK, cached, nil
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully consumed (or failed) above
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode == http.StatusOK && revalidate {
		if tag := resp.Header.Get("ETag"); tag != "" {
			c.mu.Lock()
			c.etags[path] = tag
			c.bodies[path] = body
			c.mu.Unlock()
		}
	}
	return resp.StatusCode, body, nil
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

// getJSON GETs path (with ETag revalidation) and decodes into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	status, body, err := c.do(ctx, path, nil, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &APIError{Status: status, Body: string(body)}
	}
	return json.Unmarshal(body, v)
}

// Healthz probes the daemon's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	status, body, err := c.do(ctx, "/healthz", nil, false)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &APIError{Status: status, Body: string(body)}
	}
	return nil
}

// FleetBoards fetches the full fleet snapshot. Steady-state calls serve
// from the ETag cache (no body transferred on 304).
func (c *Client) FleetBoards(ctx context.Context) (apiv1.Boards, error) {
	var out apiv1.Boards
	err := c.getJSON(ctx, "/api/fleet", &out)
	return out, err
}

// FleetDelta fetches the boards that committed after generation since.
// A nil delta means the server is at that generation — the caller is
// current. A delta whose Generation is below since comes from a server
// that restarted and numbers its generations afresh: it carries every
// board, and Generation() drops to it. Resume loops feed Generation()
// back in.
func (c *Client) FleetDelta(ctx context.Context, since uint64) (*apiv1.BoardsDelta, error) {
	path := "/api/fleet?since=" + strconv.FormatUint(since, 10)
	status, body, err := c.do(ctx, path, nil, false)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
		var out apiv1.BoardsDelta
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, err
		}
		if out.Generation < since {
			c.mu.Lock()
			c.gen = out.Generation
			c.mu.Unlock()
		}
		return &out, nil
	default:
		return nil, &APIError{Status: status, Body: string(body)}
	}
}

// FleetHealth fetches the fleet health summary.
func (c *Client) FleetHealth(ctx context.Context) (apiv1.HealthSummary, error) {
	var out apiv1.HealthSummary
	err := c.getJSON(ctx, "/api/fleet/health", &out)
	return out, err
}

// BoardEvents fetches up to n most recent events of one board (n ≤ 0
// takes the server default).
func (c *Client) BoardEvents(ctx context.Context, board string, n int) (apiv1.BoardEvents, error) {
	path := "/api/fleet/" + board + "/events"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var out apiv1.BoardEvents
	err := c.getJSON(ctx, path, &out)
	return out, err
}

// Alerts fetches the alert engine's rule states and transition log.
func (c *Client) Alerts(ctx context.Context) (apiv1.Alerts, error) {
	var out apiv1.Alerts
	err := c.getJSON(ctx, "/api/alerts", &out)
	return out, err
}

// Status fetches the single-machine study status.
func (c *Client) Status(ctx context.Context) (apiv1.Status, error) {
	var out apiv1.Status
	err := c.getJSON(ctx, "/api/status", &out)
	return out, err
}

// Ingest pushes one batch of fleet state to a hub. Safe to retry: the
// hub upserts events by (source, seq), so a duplicate push is absorbed.
func (c *Client) Ingest(ctx context.Context, req apiv1.IngestRequest) (apiv1.IngestResponse, error) {
	var out apiv1.IngestResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	status, respBody, err := c.do(ctx, "/api/hub/ingest", body, false)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, &APIError{Status: status, Body: string(respBody)}
	}
	err = json.Unmarshal(respBody, &out)
	return out, err
}
