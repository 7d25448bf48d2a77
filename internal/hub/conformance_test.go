package hub

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/server"
)

// conformanceTier is one target of the cross-tier request script: a
// fleet daemon's server, or a hub replicating that fleet, whose board
// ids carry the source name.
type conformanceTier struct {
	name   string
	url    string
	prefix string            // board-id prefix on this tier
	tags   map[string]string // ETags saved by earlier steps
	gen    string            // X-Fleet-Generation of the last full read
}

// conformanceStep is one request of the script. Paths name boards as
// {busy}, {quiet} and {unknown} and the tier's current generation as
// {gen}; inm names an ETag an earlier step saved.
type conformanceStep struct {
	name   string
	path   string
	inm    string
	save   string
	status int
	body   string // substring every tier's body must hold
	boards int    // board documents every tier's body must hold (0: unchecked)
}

// conformanceHeaders normalizes the tier-specific parts of a response
// header — the ETag's tier prefix and every generation number — and
// drops Date and Content-Length, which follow the clock and the body.
var (
	tagTier = regexp.MustCompile(`^"(fleet|hub)-`)
	digits  = regexp.MustCompile(`[0-9]+`)
)

func conformanceHeaders(h http.Header) []string {
	var out []string
	for k, vs := range h {
		if k == "Date" || k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			switch k {
			case "Etag":
				v = digits.ReplaceAllString(tagTier.ReplaceAllString(v, `"TIER-`), "N")
			case "X-Fleet-Generation":
				v = digits.ReplaceAllString(v, "N")
			}
			out = append(out, k+": "+v)
		}
	}
	sort.Strings(out)
	return out
}

// TestFleetHubConformance sends one request script to a fleet daemon's
// server and to a hub fed by hub.Pusher from that same fleet. Both tiers
// serve the api/v1 fleet routes, so they must answer every request with
// the same status, the same headers (up to the tier's ETag prefix and
// generation numbers) and the same error body.
func TestFleetHubConformance(t *testing.T) {
	// A four-event store retains only the newest events, so most boards
	// are known to both tiers yet have no events to serve.
	m, err := fleet.New(fleet.Config{Boards: 6, Seed: 7, ConfirmRuns: 1, StoreCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Run(12)
	var busy, quiet string
	for _, b := range m.Boards() {
		if len(m.Store().EventsFor(b.ID, 0)) == 0 {
			if quiet == "" {
				quiet = b.ID
			}
		} else if busy == "" {
			busy = b.ID
		}
	}
	if busy == "" || quiet == "" {
		t.Fatalf("need a board with events and one without (busy %q, quiet %q)", busy, quiet)
	}

	srv := server.New(nil)
	srv.SetFleet(m)
	fleetTS := httptest.NewServer(srv.Handler())
	defer fleetTS.Close()
	hubTS := httptest.NewServer(New().Handler(nil))
	defer hubTS.Close()
	if _, err := NewPusher(clientv1.New(hubTS.URL), "rack", m).Push(context.Background()); err != nil {
		t.Fatal(err)
	}

	script := []conformanceStep{
		{name: "boards", path: "/api/fleet", save: "boards", status: http.StatusOK},
		{name: "boards revalidated", path: "/api/fleet", inm: "boards", status: http.StatusNotModified},
		{name: "delta at the current generation", path: "/api/fleet?since={gen}", status: http.StatusNotModified},
		{name: "delta from zero", path: "/api/fleet?since=0", status: http.StatusOK, body: `"since": 0`},
		// A since past the generation counts another run's generations (the
		// server restarted under the client): every board, since echoed.
		{name: "delta ahead of the generation", path: "/api/fleet?since=1000000", status: http.StatusOK,
			body: `"since": 1000000`, boards: 6},
		{name: "malformed since", path: "/api/fleet?since=x", status: http.StatusBadRequest},
		{name: "health", path: "/api/fleet/health", save: "health", status: http.StatusOK},
		{name: "health revalidated", path: "/api/fleet/health", inm: "health", status: http.StatusNotModified},
		{name: "events", path: "/api/fleet/{busy}/events?n=5", save: "events", status: http.StatusOK},
		{name: "events revalidated", path: "/api/fleet/{busy}/events?n=5", inm: "events", status: http.StatusNotModified},
		{name: "malformed n", path: "/api/fleet/{busy}/events?n=junk", status: http.StatusBadRequest},
		{name: "board without events", path: "/api/fleet/{quiet}/events", status: http.StatusOK, body: `"events": []`},
		{name: "unknown board", path: "/api/fleet/{unknown}/events", status: http.StatusNotFound},
		{name: "unknown board, malformed n", path: "/api/fleet/{unknown}/events?n=junk", status: http.StatusNotFound},
		{name: "unknown board, matching ETag", path: "/api/fleet/{unknown}/events", inm: "events", status: http.StatusNotFound},
	}
	tiers := []*conformanceTier{
		{name: "fleet", url: fleetTS.URL, tags: map[string]string{}},
		{name: "hub", url: hubTS.URL, prefix: "rack/", tags: map[string]string{}},
	}
	for _, step := range script {
		var ref []string
		var refBody string
		for _, tier := range tiers {
			path := strings.NewReplacer(
				"{busy}", tier.prefix+busy,
				"{quiet}", tier.prefix+quiet,
				"{unknown}", tier.prefix+"board-99",
				"{gen}", tier.gen,
			).Replace(step.path)
			req, err := http.NewRequest(http.MethodGet, tier.url+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if step.inm != "" {
				req.Header.Set("If-None-Match", tier.tags[step.inm])
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			body := string(b)
			if resp.StatusCode != step.status {
				t.Errorf("%s: %s GET %s = %d, want %d", step.name, tier.name, path, resp.StatusCode, step.status)
			}
			if !strings.Contains(body, step.body) {
				t.Errorf("%s: %s body lacks %q:\n%s", step.name, tier.name, step.body, body)
			}
			if n := strings.Count(body, `"id": `); step.boards > 0 && n != step.boards {
				t.Errorf("%s: %s body holds %d boards, want %d", step.name, tier.name, n, step.boards)
			}
			if step.save != "" {
				tier.tags[step.save] = resp.Header.Get("ETag")
			}
			if step.save == "boards" {
				tier.gen = resp.Header.Get("X-Fleet-Generation")
			}
			hdr := conformanceHeaders(resp.Header)
			if tier == tiers[0] {
				ref, refBody = hdr, body
				continue
			}
			if strings.Join(hdr, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%s: headers differ\n%s:\n  %s\n%s:\n  %s", step.name,
					tiers[0].name, strings.Join(ref, "\n  "), tier.name, strings.Join(hdr, "\n  "))
			}
			if resp.StatusCode >= 400 && body != refBody {
				t.Errorf("%s: error bodies differ: %s %q, %s %q", step.name, tiers[0].name, refBody, tier.name, body)
			}
		}
	}
}

// TestFleetAPIConcurrentReads reads both tiers from several goroutines
// while the fleet commits and pushes, so the race detector sees the
// shared FleetAPI caches in concurrent use. Once the writers stop, both
// tiers must serve the final health, not a cached earlier one.
func TestFleetAPIConcurrentReads(t *testing.T) {
	m, err := fleet.New(fleet.Config{Boards: 4, Seed: 3, ConfirmRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := server.New(nil)
	srv.SetFleet(m)
	fleetTS := httptest.NewServer(srv.Handler())
	defer fleetTS.Close()
	hubTS := httptest.NewServer(New().Handler(nil))
	defer hubTS.Close()
	ctx := context.Background()
	p := NewPusher(clientv1.New(hubTS.URL), "rack", m)
	if _, err := p.Push(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	read := func(url, board string) {
		defer wg.Done()
		c := clientv1.New(url)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.FleetHealth(ctx); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.BoardEvents(ctx, board, 5); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.FleetDelta(ctx, c.Generation()); err != nil {
				t.Error(err)
				return
			}
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go read(fleetTS.URL, "board-01")
		go read(hubTS.URL, "rack/board-01")
	}
	for i := 0; i < 20; i++ {
		m.Run(4)
		if _, err := p.Push(ctx); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	want := m.HealthAPIv1().Polls
	for _, url := range []string{fleetTS.URL, hubTS.URL} {
		if sum, err := clientv1.New(url).FleetHealth(ctx); err != nil || sum.Polls != want {
			t.Errorf("%s health after the last commit: polls %d (%v), want %d", url, sum.Polls, err, want)
		}
	}
}
