package hub

import (
	"context"
	"errors"
	"net/http"
	"time"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
)

// Pusher replicates one fleet into a hub. Each Push sends what changed
// since the last push the hub acknowledged: the boards committed since
// that push's fleet generation (BoardsSince), the event and transition
// tails, and the health counters. The first push carries everything.
// Steady-state push cost therefore follows the boards that changed, not
// the fleet size.
//
// The event delta rule rides on the store's dedup semantics: a dedup
// merge only ever touches an event whose LastAt advances to the merge
// time, so every event created or merged since the last push satisfies
// At >= lastPush or LastAt >= lastPush. Boundary events are resent —
// the hub's (source, seq) upsert absorbs them as duplicates — which is
// also what makes a retried or replayed push harmless. The store
// filters its ring in place by that rule (Fleet.EventsSince), and the
// transition log is cut at the last pushed seq (TransitionsSince), so
// gathering a steady push copies only what it carries.
//
// The baseline advances only when the hub acknowledges a push, so a
// failed push's boards and events ride along with the next one. A hub
// that does not hold the baseline (it restarted) answers 409 Conflict;
// Push then falls back to a full push — every board, every retained
// event, every retained transition — and retries once.
type Pusher struct {
	c      *clientv1.Client
	source string
	f      fleet.Fleet

	lastGen uint64        // fleet generation of the last acknowledged push (0: none)
	lastAt  time.Duration // fleet virtual time of the last acknowledged push
	lastT   uint64        // highest transition seq already pushed
}

// NewPusher wires a fleet to a hub client under the given source name
// (the hub rejects names containing '/').
func NewPusher(c *clientv1.Client, source string, f fleet.Fleet) *Pusher {
	return &Pusher{c: c, source: source, f: f}
}

// Push sends one incremental batch (everything, on the first call and
// after the hub refused the baseline). On error nothing is marked
// pushed: the next Push resends the same tail, and the hub
// deduplicates.
func (p *Pusher) Push(ctx context.Context) (apiv1.IngestResponse, error) {
	resp, err := p.push(ctx)
	var apiErr *clientv1.APIError
	if p.lastGen > 0 && errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
		p.lastGen, p.lastAt, p.lastT = 0, 0, 0
		resp, err = p.push(ctx)
	}
	return resp, err
}

// push sends the batch relative to the current baseline and advances
// the baseline when the hub acknowledges it. The zero baseline selects
// everything: every board, every event (At >= 0) and every transition.
func (p *Pusher) push(ctx context.Context) (apiv1.IngestResponse, error) {
	now := p.f.Now()
	events := p.f.EventsSince(p.lastAt)
	transitions := p.f.TransitionsSince(p.lastT)
	maxT := p.lastT
	if n := len(transitions); n > 0 {
		maxT = transitions[n-1].Seq
	}
	gen, boards := p.f.BoardsSince(p.lastGen)
	health := p.f.HealthAPIv1()
	req := apiv1.IngestRequest{
		Source:      p.source,
		Generation:  gen,
		VirtualNow:  now,
		Boards:      boards,
		Events:      events,
		Transitions: transitions,
		Health:      &health,
		BoardsSince: p.lastGen,
	}
	resp, err := p.c.Ingest(ctx, req)
	if err != nil {
		return resp, err
	}
	p.lastGen = gen
	p.lastAt = now
	p.lastT = maxT
	return resp, nil
}
