// Package watchdog models the external Raspberry Pi monitor of the paper's
// framework (§2.2, Fig. 2): a little computer physically wired to the
// X-Gene 2 board's serial port and to its power and reset switches. It
// watches the serial heartbeat; when the stream goes silent — the system
// crashed under undervolting — it power-cycles the board so the campaign
// can continue without human intervention.
package watchdog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xvolt/internal/obs"
)

// Target is the hardware surface the watchdog is wired to: the serial
// heartbeat line and the physical power/reset switches. It deliberately
// excludes every software interface — a hung kernel answers none of those.
type Target interface {
	// Heartbeat samples the serial heartbeat counter.
	Heartbeat() uint64
	// PowerOff opens the power switch.
	PowerOff()
	// PowerOn closes the power switch (board boots at nominal settings).
	PowerOn()
}

// Status is the outcome of one probe.
type Status int

const (
	// Alive means the heartbeat advanced since the last probe.
	Alive Status = iota
	// Stalled means the heartbeat did not advance but the hang threshold
	// has not been reached yet.
	Stalled
	// Recovered means the watchdog declared a hang and power-cycled.
	Recovered
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Stalled:
		return "stalled"
	case Recovered:
		return "recovered"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Watchdog monitors one board.
type Watchdog struct {
	mu sync.Mutex

	target    Target
	threshold int // consecutive silent probes before a power cycle

	lastBeat   uint64
	haveBeat   bool
	silent     int
	recoveries int
	events     []string

	m wdMetrics
}

// wdMetrics are the watchdog's exported instruments; all fields are
// nil (inert) until SetMetrics attaches a registry.
type wdMetrics struct {
	heartbeats      *obs.Counter
	stalls          *obs.Counter
	timeouts        *obs.Counter
	recoveries      *obs.Counter
	recoverySeconds *obs.HDR
}

// New wires a watchdog to a target. threshold is how many consecutive
// heartbeat-silent probes are tolerated before power-cycling; the paper's
// setup used a timeout limit (Table 3, SC) — threshold × probe interval
// plays that role here. threshold < 1 is clamped to 1.
func New(target Target, threshold int) *Watchdog {
	if threshold < 1 {
		threshold = 1
	}
	return &Watchdog{target: target, threshold: threshold}
}

// SetMetrics registers the watchdog's telemetry on r: heartbeat probes,
// stalled probes, declared timeouts, recoveries, and the recovery (power
// cycle) latency summary. Nil registry leaves the watchdog unmetered.
func (w *Watchdog) SetMetrics(r *obs.Registry) {
	m := wdMetrics{
		heartbeats: r.Counter("xvolt_watchdog_heartbeats_total",
			"Probes that saw the serial heartbeat advance."),
		stalls: r.Counter("xvolt_watchdog_stalled_probes_total",
			"Probes that found the heartbeat silent, below the hang threshold."),
		timeouts: r.Counter("xvolt_watchdog_timeouts_total",
			"Hangs declared after the heartbeat stayed silent past the threshold."),
		recoveries: r.Counter("xvolt_watchdog_recoveries_total",
			"Power cycles the watchdog performed to recover the board."),
		recoverySeconds: r.HDR("xvolt_watchdog_recovery_seconds",
			"Power-cycle latency per recovery.", obs.HDROpts{}),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.m = m
}

// Probe performs one monitoring step and recovers the board if the hang
// threshold is crossed.
func (w *Watchdog) Probe() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	beat := w.target.Heartbeat()
	if !w.haveBeat || beat != w.lastBeat {
		w.haveBeat = true
		w.lastBeat = beat
		w.silent = 0
		w.m.heartbeats.Inc()
		return Alive
	}
	w.silent++
	if w.silent < w.threshold {
		w.m.stalls.Inc()
		return Stalled
	}
	// Declared hang: physical power cycle, like pressing the switches.
	w.m.timeouts.Inc()
	span := obs.StartSpan(w.m.recoverySeconds)
	w.target.PowerOff()
	w.target.PowerOn()
	span.End()
	w.m.recoveries.Inc()
	w.recoveries++
	w.silent = 0
	w.haveBeat = false
	w.events = append(w.events, fmt.Sprintf("recovery #%d: heartbeat silent for %d probes", w.recoveries, w.threshold))
	if len(w.events) > 256 {
		w.events = w.events[len(w.events)-256:]
	}
	return Recovered
}

// Recoveries reports how many power cycles the watchdog performed.
func (w *Watchdog) Recoveries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recoveries
}

// Events returns a copy of the recovery log.
func (w *Watchdog) Events() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.events...)
}

// Run probes on the given interval until ctx is cancelled — the autonomous
// mode in which the real Raspberry Pi operates. Campaign code that wants
// deterministic single-threaded behavior calls Probe directly instead.
func (w *Watchdog) Run(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			w.Probe()
		}
	}
}
