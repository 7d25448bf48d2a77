// Package loadgen is a closed-loop HTTP load generator for the xvolt
// daemons: N concurrent clients, each issuing one request at a time
// against a weighted endpoint mix, with per-endpoint HDR latency
// histograms. It answers the fleet-scale question the paper's single
// board cannot: how does the observability surface hold up as board
// count and scrape rate grow?
//
// Determinism boundary: the target choice per request is driven by a
// per-client PRNG seeded through core.CampaignSeed, so the request mix
// is reproducible for a given (seed, clients); latencies, of course,
// are wall-clock measurements.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xvolt/internal/core"
	"xvolt/internal/obs"
	"xvolt/internal/randsrc"
)

// now is the package's single sanctioned wall-clock reference
// (allowlisted for xvolt-lint's detrand rule): load generation is
// measurement of a live daemon, inherently wall-clock work.
var now = time.Now

// Target is one weighted endpoint in the request mix.
type Target struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Weight int    `json:"weight"`
}

// DefaultMix exercises the fleet read path roughly in proportion to how
// a dashboard would: board listing and health summary dominate, event
// tails and CSV export trail.
func DefaultMix() []Target {
	return []Target{
		{Name: "fleet", Path: "/api/fleet", Weight: 4},
		{Name: "health", Path: "/api/fleet/health", Weight: 3},
		{Name: "events", Path: "/api/fleet/board-00/events?n=50", Weight: 2},
		{Name: "csv", Path: "/api/results.csv", Weight: 1},
	}
}

// ParseMix parses "name=path=weight,name=path=weight,..." into targets.
func ParseMix(s string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Name before the first "=", weight after the last; the path in
		// between may itself contain "=" (query strings like ?n=50).
		lo := strings.Index(part, "=")
		hi := strings.LastIndex(part, "=")
		if lo < 0 || hi <= lo {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want name=path=weight)", part)
		}
		w, err := strconv.Atoi(part[hi+1:])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		out = append(out, Target{Name: part[:lo], Path: part[lo+1 : hi], Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	return out, nil
}

// Options configure one load-generation run.
type Options struct {
	BaseURL  string        // daemon base URL, e.g. http://127.0.0.1:8080
	Clients  int           // concurrent closed-loop clients (default 4)
	Duration time.Duration // measured run length (default 2s)
	// Warmup runs the load for this long before measurement starts:
	// clients drive requests and maintain their ETag/generation caches,
	// but nothing is tallied. The report then reflects steady state —
	// without it, each client's first full-fleet transfer (O(fleet)
	// bytes) dominates short runs against large fleets.
	Warmup  time.Duration
	Seed    int64        // master seed for the per-client mix PRNGs
	Targets []Target     // endpoint mix (default DefaultMix)
	HDR     obs.HDROpts  // latency histogram layout (default obs defaults)
	Client  *http.Client // HTTP client (default http.DefaultClient)
	// Revalidate makes each client echo the last ETag it saw per target
	// as If-None-Match, and poll fleet deltas: after a response carries
	// X-Fleet-Generation, subsequent requests to that target add
	// ?since=<generation>, so a changed fleet transfers only the boards
	// that committed since the client's last poll — the dashboard
	// polling pattern the fleet's generation-keyed caches and delta
	// snapshots are built for. 304s and delta 200s are tallied
	// separately.
	Revalidate bool
}

func (o Options) withDefaults() Options {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if len(o.Targets) == 0 {
		o.Targets = DefaultMix()
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	o.BaseURL = strings.TrimRight(o.BaseURL, "/")
	return o
}

// TargetReport is the per-endpoint result: counts, status-code tally and
// latency quantiles (seconds) from the merged per-client histograms.
type TargetReport struct {
	Name     string         `json:"name"`
	Path     string         `json:"path"`
	Requests uint64         `json:"requests"`
	Errors   uint64         `json:"errors"` // transport errors (no response)
	Codes    map[string]int `json:"codes"`  // "200" → count
	Code5xx  uint64         `json:"code_5xx"`
	Code304  uint64         `json:"code_304"`   // cache revalidation hits
	Deltas   uint64         `json:"delta_200s"` // 200s served as ?since= deltas
	QPS      float64        `json:"qps"`
	MeanSec  float64        `json:"mean_sec"`
	MinSec   float64        `json:"min_sec"`
	MaxSec   float64        `json:"max_sec"`
	P50Sec   float64        `json:"p50_sec"`
	P90Sec   float64        `json:"p90_sec"`
	P99Sec   float64        `json:"p99_sec"`
	P999Sec  float64        `json:"p999_sec"`
}

// Report is one run's full result.
type Report struct {
	BaseURL   string         `json:"base_url"`
	Clients   int            `json:"clients"`
	Seed      int64          `json:"seed"`
	WarmupSec float64        `json:"warmup_sec"` // unmeasured ramp preceding WallSec
	WallSec   float64        `json:"wall_sec"`
	Requests  uint64         `json:"requests"`
	Errors    uint64         `json:"errors"`
	Code5xx   uint64         `json:"code_5xx"`
	Code304   uint64         `json:"code_304"`
	Deltas    uint64         `json:"delta_200s"`
	QPS       float64        `json:"qps"`
	RelErr    float64        `json:"quantile_rel_err"` // histogram error bound
	Targets   []TargetReport `json:"targets"`
	Total     TargetReport   `json:"total"`
}

// Bad reports whether the run saw transport errors or 5xx responses —
// the -check criterion for CI smoke runs.
func (r *Report) Bad() bool { return r.Errors > 0 || r.Code5xx > 0 }

// WriteTable renders the QPS × latency table.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-8s %9s %7s %6s %8s %8s %9s %9s %9s %9s %9s\n",
		"target", "requests", "qps", "err", "304", "delta", "p50", "p90", "p99", "p999", "max")
	row := func(t *TargetReport) {
		bad := t.Errors + t.Code5xx
		fmt.Fprintf(w, "%-8s %9d %7.1f %6d %8d %8d %9s %9s %9s %9s %9s\n",
			t.Name, t.Requests, t.QPS, bad, t.Code304, t.Deltas,
			fmtSec(t.P50Sec), fmtSec(t.P90Sec), fmtSec(t.P99Sec),
			fmtSec(t.P999Sec), fmtSec(t.MaxSec))
	}
	for i := range r.Targets {
		row(&r.Targets[i])
	}
	row(&r.Total)
}

func fmtSec(s float64) string {
	if s != s { // NaN: target never completed a request
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// clientTally is one client's private slice of the result — merged under
// a lock only after the client finishes, so the hot path is contention-free.
type clientTally struct {
	hists   []*obs.HDR // per target
	reqs    []uint64
	errs    []uint64
	codes   []map[string]int
	code5s  []uint64
	code304 []uint64
	deltas  []uint64
}

// Run drives the load and assembles the report. The run ends at the
// earlier of opts.Duration and ctx cancellation.
func Run(ctx context.Context, opts Options) (*Report, error) {
	o := opts.withDefaults()
	if o.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	totalWeight := 0
	for _, t := range o.Targets {
		if t.Weight < 1 {
			return nil, fmt.Errorf("loadgen: target %q has weight %d (want ≥ 1)", t.Name, t.Weight)
		}
		totalWeight += t.Weight
	}

	if o.Warmup < 0 {
		o.Warmup = 0
	}
	start := now()
	recordFrom := start.Add(o.Warmup)
	deadline := recordFrom.Add(o.Duration)
	tallies := make([]*clientTally, o.Clients)
	var wg sync.WaitGroup
	for ci := 0; ci < o.Clients; ci++ {
		ct := &clientTally{
			hists:   make([]*obs.HDR, len(o.Targets)),
			reqs:    make([]uint64, len(o.Targets)),
			errs:    make([]uint64, len(o.Targets)),
			codes:   make([]map[string]int, len(o.Targets)),
			code5s:  make([]uint64, len(o.Targets)),
			code304: make([]uint64, len(o.Targets)),
			deltas:  make([]uint64, len(o.Targets)),
		}
		for ti := range o.Targets {
			ct.hists[ti] = obs.NewHDR(o.HDR)
			ct.codes[ti] = make(map[string]int)
		}
		tallies[ci] = ct
		rng := newClientRNG(o.Seed, ci)
		wg.Add(1)
		go func() {
			defer wg.Done()
			etags := make([]string, len(o.Targets)) // last ETag per target
			gens := make([]string, len(o.Targets))  // last X-Fleet-Generation per target
			for now().Before(deadline) && ctx.Err() == nil {
				ti := pickTarget(rng, o.Targets, totalWeight)
				url := o.BaseURL + o.Targets[ti].Path
				delta := o.Revalidate && gens[ti] != ""
				if delta {
					sep := "?"
					if strings.Contains(o.Targets[ti].Path, "?") {
						sep = "&"
					}
					url += sep + "since=" + gens[ti]
				}
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					if !now().Before(recordFrom) {
						ct.reqs[ti]++
						ct.errs[ti]++
					}
					continue
				}
				if o.Revalidate && etags[ti] != "" {
					req.Header.Set("If-None-Match", etags[ti])
				}
				t0 := now()
				resp, err := o.Client.Do(req)
				if err != nil {
					if !now().Before(recordFrom) {
						ct.reqs[ti]++
						ct.errs[ti]++
					}
					continue
				}
				// Drain so keep-alive connections are reused; latency is
				// time-to-last-byte, which is what a dashboard feels.
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close() // read-only body, fully drained
				done := now()
				if tag := resp.Header.Get("ETag"); tag != "" {
					etags[ti] = tag
				}
				if g := resp.Header.Get("X-Fleet-Generation"); g != "" {
					gens[ti] = g
				}
				if done.Before(recordFrom) {
					continue // warmup: caches updated, nothing tallied
				}
				ct.reqs[ti]++
				ct.hists[ti].Observe(done.Sub(t0).Seconds())
				ct.codes[ti][fmt.Sprintf("%d", resp.StatusCode)]++
				if resp.StatusCode >= 500 {
					ct.code5s[ti]++
				}
				if resp.StatusCode == http.StatusNotModified {
					ct.code304[ti]++
				}
				if delta && resp.StatusCode == http.StatusOK {
					ct.deltas[ti]++
				}
			}
		}()
	}
	wg.Wait()
	wall := now().Sub(recordFrom).Seconds()
	if wall < 0 {
		wall = 0 // cancelled inside the warmup window
	}

	rep := &Report{
		BaseURL: o.BaseURL, Clients: o.Clients, Seed: o.Seed,
		WarmupSec: o.Warmup.Seconds(), WallSec: wall,
		RelErr: o.HDR.RelativeError(),
	}
	var totalSnap obs.HDRSnapshot
	totalCodes := make(map[string]int)
	for ti, tgt := range o.Targets {
		tr := TargetReport{Name: tgt.Name, Path: tgt.Path, Codes: make(map[string]int)}
		var snap obs.HDRSnapshot
		for _, ct := range tallies {
			tr.Requests += ct.reqs[ti]
			tr.Errors += ct.errs[ti]
			tr.Code5xx += ct.code5s[ti]
			tr.Code304 += ct.code304[ti]
			tr.Deltas += ct.deltas[ti]
			for code, n := range ct.codes[ti] {
				tr.Codes[code] += n
				totalCodes[code] += n
			}
			if err := snap.Merge(ct.hists[ti].Snapshot()); err != nil {
				return nil, fmt.Errorf("loadgen: merge %s: %w", tgt.Name, err)
			}
		}
		fillQuantiles(&tr, snap, wall)
		if err := totalSnap.Merge(snap); err != nil {
			return nil, fmt.Errorf("loadgen: merge total: %w", err)
		}
		rep.Requests += tr.Requests
		rep.Errors += tr.Errors
		rep.Code5xx += tr.Code5xx
		rep.Code304 += tr.Code304
		rep.Deltas += tr.Deltas
		rep.Targets = append(rep.Targets, tr)
	}
	rep.Total = TargetReport{Name: "total", Codes: totalCodes,
		Requests: rep.Requests, Errors: rep.Errors, Code5xx: rep.Code5xx,
		Code304: rep.Code304, Deltas: rep.Deltas}
	fillQuantiles(&rep.Total, totalSnap, wall)
	rep.QPS = rep.Total.QPS
	sort.Slice(rep.Targets, func(i, j int) bool { return rep.Targets[i].Name < rep.Targets[j].Name })
	return rep, nil
}

// newClientRNG derives one client's private mix PRNG from the master
// seed via the campaign seed-derivation chain.
func newClientRNG(seed int64, client int) *rand.Rand {
	return randsrc.New(core.CampaignSeed(seed, "loadgen", "client", "", client))
}

// pickTarget draws one target index by weight.
func pickTarget(rng *rand.Rand, targets []Target, totalWeight int) int {
	n := rng.Intn(totalWeight)
	for i, t := range targets {
		n -= t.Weight
		if n < 0 {
			return i
		}
	}
	return len(targets) - 1
}

func fillQuantiles(tr *TargetReport, s obs.HDRSnapshot, wall float64) {
	if wall > 0 {
		tr.QPS = float64(tr.Requests) / wall
	}
	tr.MeanSec = s.Mean()
	tr.MinSec = s.Min
	tr.MaxSec = s.Max
	q := s.Quantiles(0.5, 0.9, 0.99, 0.999)
	tr.P50Sec, tr.P90Sec, tr.P99Sec, tr.P999Sec = q[0], q[1], q[2], q[3]
}
