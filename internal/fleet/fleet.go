// Package fleet is the multi-board health and orchestration layer: a
// datacenter's worth of simulated X-Gene 2 boards, each undervolted to
// its characterized margin, continuously polled for health, and governed
// by an online guardband controller — the layer that turns the paper's
// single-board characterization (§2.2) and guardband harvesting (§3.2)
// into a fleet-wide energy policy, in the spirit of the Scrooge-attack
// fleet economics and the journal extension's characterization-as-a-
// service setting.
//
// Determinism is inherited from the campaign engine's design point: every
// board's fabrication, characterization, run and poll-interval streams
// are seeded through core.CampaignSeed from (Config.Seed, board id), the
// poll schedule runs on a virtual clock, and poll results commit to the
// event store in global schedule order regardless of how many workers
// execute them. Two managers with the same Config produce byte-identical
// event stores and transition logs at any worker count.
package fleet

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "xvolt/api/v1"
	"xvolt/internal/core"
	"xvolt/internal/energy"
	"xvolt/internal/randsrc"
	"xvolt/internal/silicon"
	"xvolt/internal/trace"
	"xvolt/internal/units"
	"xvolt/internal/watchdog"
	"xvolt/internal/workload"
	"xvolt/internal/xgene"
)

// Config sizes and seeds a fleet.
type Config struct {
	// Boards is the fleet size (default 16).
	Boards int
	// Seed is the master seed; every per-board stream derives from it
	// through core.CampaignSeed.
	Seed int64
	// Workers sizes the worker pool that polls the boards in Run
	// (default 4). Results are independent of the worker count.
	Workers int
	// Deprecated: ignored. The fleet has one schedule and one worker
	// pool; the field remains only until its last user stops setting it.
	//xvolt:lint-ignore unusedexport frozen perfbench sets it until the next benchmark change deletes it (ROADMAP item 1)
	Shards int
	// RunsPerPoll is how many benchmark runs one poll samples (default 2).
	RunsPerPoll int
	// ConfirmRuns is the bisection confirmation count used to
	// characterize each board's floor at fleet start (default 3).
	ConfirmRuns int
	// BaseInterval is the mean poll interval on the virtual clock
	// (default 1s); per-poll intervals are jittered around it.
	BaseInterval time.Duration
	// JitterFrac is the fractional interval jitter in (0, 1) (default
	// 0.25; negative disables jitter). Jitter is drawn from each board's
	// seeded interval stream, never from global randomness.
	JitterFrac float64
	// StoreCap bounds the event store (default 4096 events).
	StoreCap int
	// DedupWindow collapses identical consecutive per-board events closer
	// together than this (default 3×BaseInterval; negative disables).
	DedupWindow time.Duration
	// RetainAge drops events older than this relative to the newest
	// (0 disables age retention).
	RetainAge time.Duration
	// StoreDir, when set, journals the event store to a durable segmented
	// log in that directory (internal/eventstore) instead of the in-memory
	// ring. Replaying the log reconstructs the run's retained events byte
	// for byte. Use a fresh directory per run: opening a dir with history
	// resumes its sequence numbers before the initial commit re-appends.
	StoreDir string
	// StoreSegmentBytes and StoreMaxSegments parameterize the durable
	// log's rotation and snapshot compaction (≤ 0 take the eventstore
	// defaults). Ignored without StoreDir.
	StoreSegmentBytes int
	StoreMaxSegments  int
	// Corners are cycled across boards (default TTT, TFF, TSS — a mixed-
	// silicon fleet).
	Corners []silicon.Corner
	// Health and Guardband parameterize the per-board state machine and
	// margin controller (zero values take the defaults).
	Health    HealthPolicy
	Guardband GuardbandPolicy
	// Weights are the severity weights for poll tallies (zero value takes
	// core.PaperWeights).
	Weights core.Weights
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Boards <= 0 {
		c.Boards = 16
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.RunsPerPoll <= 0 {
		c.RunsPerPoll = 2
	}
	if c.ConfirmRuns <= 0 {
		c.ConfirmRuns = 3
	}
	if c.BaseInterval <= 0 {
		c.BaseInterval = time.Second
	}
	if c.JitterFrac == 0 || c.JitterFrac >= 1 {
		c.JitterFrac = 0.25
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 4096
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 3 * c.BaseInterval
	}
	if c.DedupWindow < 0 {
		c.DedupWindow = 0
	}
	if len(c.Corners) == 0 {
		c.Corners = []silicon.Corner{silicon.TTT, silicon.TFF, silicon.TSS}
	}
	if c.Health == (HealthPolicy{}) {
		c.Health = DefaultHealthPolicy()
	}
	if c.Guardband == (GuardbandPolicy{}) {
		c.Guardband = DefaultGuardbandPolicy()
	}
	if c.Weights == (core.Weights{}) {
		c.Weights = core.PaperWeights
	}
	return c
}

// board is one managed machine plus its health and guardband state. All
// fields are touched only by the worker currently executing the board's
// polls (polls of one board are strictly sequential); the Manager reads
// nothing from it after startup — status snapshots travel inside poll
// outcomes.
type board struct {
	id     string
	index  int
	corner silicon.Corner

	machine *xgene.Machine
	dog     *watchdog.Watchdog
	spec    *workload.Spec
	coreID  int

	rng     *rand.Rand // run non-determinism stream
	ivalRng *rand.Rand // poll-interval jitter stream

	// margins is the board's characterized margin assessment for its
	// (core, workload) pair at full speed, cached once after
	// characterization so the poll hot loop never re-derives it — polls
	// always run the target core at MaxFrequency (applyOperatingPoint
	// restores that after every reboot), so the cached regime is the
	// regime every poll run executes under.
	margins silicon.Margins

	floor  units.MilliVolts // characterized safe Vmin
	gb     guardband
	health healthMachine

	nextDue time.Duration

	// lifetime counters (also snapshotted into BoardStatus).
	polls, runs         int
	sdcs, ces, ues, acs int
}

// BoardStatus is a board's externally visible state, snapshotted at the
// board's latest committed poll. It is the api/v1 wire document itself:
// the status table, Boards/BoardsSince, the snapshot encoder and the hub
// pusher all carry it unconverted.
type BoardStatus = apiv1.BoardStatus

// voltage returns the board's current operating point.
func (b *board) voltage() units.MilliVolts { return b.gb.voltage(b.floor) }

// savings is the fractional board power saving vs the nominal rail.
func (b *board) savings() float64 { return energy.VoltageSavings(b.voltage()) }

// status snapshots the board after its poll at `at`.
func (b *board) status(at time.Duration) BoardStatus {
	return BoardStatus{
		ID:         b.id,
		Corner:     b.corner.String(),
		Workload:   b.spec.ID(),
		Core:       b.coreID,
		State:      b.health.state.String(),
		FloorMV:    int(b.floor),
		MarginMV:   int(b.gb.marginMV()),
		VoltageMV:  int(b.voltage()),
		Polls:      b.polls,
		Runs:       b.runs,
		SDCs:       b.sdcs,
		CEs:        uint64(b.ces),
		UEs:        uint64(b.ues),
		ACs:        b.acs,
		Boots:      b.machine.BootCount(),
		Recoveries: b.dog.Recoveries(),
		Savings:    b.savings(),
		LastPoll:   at,
		Frequency:  int(units.MaxFrequency),
	}
}

// applyOperatingPoint programs the board's reliable-cores setup (target
// PMD at full speed, background PMDs slow) and the guardband-controlled
// rail voltage. Errors are ignored by design: the machine is alive and
// the values are on-grid, so these cannot fail; a concurrent crash is
// recovered on the next poll.
func (b *board) applyOperatingPoint() {
	target := silicon.PMDOf(b.coreID)
	for pmd := 0; pmd < silicon.NumPMDs; pmd++ {
		f := units.MinFrequency
		if pmd == target {
			f = units.MaxFrequency
		}
		_ = b.machine.SetPMDFrequency(pmd, f)
	}
	_ = b.machine.SetPMDVoltage(b.voltage())
}

// nextInterval draws the board's next jittered poll interval from its
// seeded interval stream.
func (b *board) nextInterval(cfg *Config) time.Duration {
	jitter := 1 + cfg.JitterFrac*(2*b.ivalRng.Float64()-1)
	return time.Duration(float64(cfg.BaseInterval) * jitter)
}

// recover drives the watchdog until the machine answers again.
func (b *board) recover() (rebooted bool) {
	for probes := 0; !b.machine.Responsive(); probes++ {
		if b.dog.Probe() == watchdog.Recovered {
			rebooted = true
		}
		if probes > 16 {
			// The watchdog threshold guarantees recovery long before this.
			panic("fleet: watchdog failed to recover board " + b.id)
		}
	}
	return rebooted
}

// pollOutcome is everything one poll produced, staged for in-order commit.
type pollOutcome struct {
	board      int
	due        time.Duration
	runs       int
	rebooted   bool
	events     []Event           // Seq/At assigned by the store at commit
	transition *apiv1.Transition // Seq/At assigned at commit
	status     BoardStatus
}

// poll executes one health poll: RunsPerPoll benchmark runs at the
// operating point, classification from observables only (output
// comparison, EDAC deltas, liveness), watchdog recovery on crashes,
// health-machine update, and guardband reaction.
//
//xvolt:hotpath fleet poll loop; every board crosses this each tick
func (b *board) poll(due time.Duration, cfg *Config) pollOutcome {
	o := pollOutcome{board: b.index, due: due, runs: cfg.RunsPerPoll}
	stage := func(e Event) {
		e.Board = b.id
		o.events = append(o.events, e)
	}

	var tally core.Tally
	var sig Signal
	mv := int(b.voltage())
	for r := 0; r < cfg.RunsPerPoll; r++ {
		before := b.machine.EDAC().Snapshot()
		res, err := b.machine.RunOnCoreAssessed(b.coreID, b.spec, b.rng, b.margins)
		var obsv core.Observation
		switch {
		case err != nil || !res.SystemUp:
			// ErrUnresponsive or a crash during the run: the board is down.
			obsv.SC = true
		default:
			delta := b.machine.EDAC().Snapshot().Sub(before)
			obsv = core.Observation{
				SDC: res.ExitCode == 0 && res.Output != b.spec.Golden(),
				CE:  delta.TotalCE() > 0,
				UE:  delta.TotalUE() > 0,
				AC:  res.ExitCode != 0,
			}
			sig.CE += delta.TotalCE()
			sig.UE += delta.TotalUE()
		}
		tally.Add(obsv)
		if obsv.SDC {
			sig.SDC = true
			b.sdcs++
			stage(Event{Kind: SDCObserved, MV: mv, Msg: "output mismatch at operating point"})
		}
		if obsv.CE {
			b.ces++
			stage(Event{Kind: CEBurst, MV: mv, Msg: "edac corrected errors"})
		}
		if obsv.UE {
			b.ues++
			stage(Event{Kind: UEDetected, MV: mv, Msg: "edac uncorrected errors"})
		}
		if obsv.AC {
			sig.AC = true
			b.acs++
			stage(Event{Kind: AppCrash, MV: mv, Msg: "benchmark terminated abnormally"})
		}
		if obsv.SC {
			if b.recover() {
				sig.Rebooted = true
				o.rebooted = true
				stage(Event{Kind: BoardRebooted, MV: mv, Msg: "system hang, watchdog power cycle"})
			}
			// The reboot came up at nominal: re-program the operating point.
			b.applyOperatingPoint()
			stage(Event{Kind: UndervoltApplied, MV: int(b.voltage()), Msg: "operating point restored after reboot"})
		}
	}
	b.polls++
	b.runs += cfg.RunsPerPoll
	sig.Severity = tally.Severity(cfg.Weights)

	from := b.health.state
	to, reason, changed := b.health.observe(sig, cfg.Health)
	if changed {
		o.transition = &apiv1.Transition{Board: b.id, From: from.String(), To: to.String(), Reason: reason}
		stage(Event{Kind: HealthChanged, State: to, Msg: reason})
		if delta := b.gb.onTransition(to, cfg.Guardband); delta != 0 {
			kind := GuardbandWidened
			if delta < 0 {
				kind = GuardbandNarrowed
			}
			stage(Event{Kind: kind, MV: int(b.gb.marginMV()),
				Msg: "margin " + signedSteps(delta) + " steps on " + to.String()})
			b.applyOperatingPoint()
			stage(Event{Kind: UndervoltApplied, MV: int(b.voltage()), Msg: "rail re-programmed"})
		}
	} else if b.health.state == Healthy {
		if delta := b.gb.onHealthyPoll(cfg.Guardband); delta != 0 {
			stage(Event{Kind: GuardbandNarrowed, MV: int(b.gb.marginMV()),
				Msg: "margin " + signedSteps(delta) + " step after healthy streak"})
			b.applyOperatingPoint()
			stage(Event{Kind: UndervoltApplied, MV: int(b.voltage()), Msg: "rail re-programmed"})
		}
	}

	o.status = b.status(due)
	return o
}

// Fleet is what the serving and replication layers read from a running
// fleet: the api/v1 fleet routes (server.FleetReader) and hub.Pusher.
// Manager is its one implementation; the daemon's poll loop and the dump
// path hold the *Manager itself.
type Fleet interface {
	// Read by the /api/fleet routes.
	Generation() uint64
	BoardsJSON() (uint64, []byte, error)
	BoardsDeltaJSON(since uint64) (uint64, []byte, error)
	HasBoard(id string) bool
	HealthAPIv1() apiv1.HealthSummary
	EventsAPIv1(id string, n int) []apiv1.Event

	// Read by hub.Pusher. The three reads after Now return only what
	// changed since the pusher's last acknowledged push, so a steady
	// push copies the boards, events and transitions it carries and
	// nothing else.
	Now() time.Duration
	BoardsSince(since uint64) (uint64, []BoardStatus)
	EventsSince(at time.Duration) []apiv1.Event
	TransitionsSince(seq uint64) []apiv1.Transition
}

var _ Fleet = (*Manager)(nil)

// Manager owns the fleet: the boards and their poll schedule
// (schedule.go), and the committed, observable state — event store,
// status table, transition log, virtual clock, generation counter and
// delta-snapshot encoder. Run drives polls; the HTTP layer reads
// snapshots. The committed state changes only at commit time under mu,
// in schedule order, which is why every artifact is byte-identical at
// any worker count.
type Manager struct {
	cfg    Config
	boards []*board
	byID   map[string]int // board id → board index (ids are immutable)
	sched  schedule       // next-due poll of every board; touched under runMu

	mu          sync.Mutex
	store       *Store
	clock       time.Duration // committed virtual time (store clock source)
	status      []BoardStatus
	transitions []apiv1.Transition
	tseq        uint64
	polled      uint64
	m           fleetMetrics
	tracer      *trace.Tracer

	// vclock mirrors clock for lock-free readers — the tracer's clock
	// hook reads it without touching mu (commit holds mu while spans
	// are created, so the hook must not lock).
	vclock atomic.Int64

	// gen counts committed snapshot generations: 1 after New, +1 per Run
	// that committed at least one poll. Snapshot readers (the HTTP layer)
	// key caches and ETags off it — equal generations imply identical
	// Boards/HealthAPIv1/Transitions snapshots.
	gen atomic.Uint64

	// enc caches the serialized /api/fleet document per generation,
	// re-marshaling only dirty board segments (see snapshot.go).
	enc snapshotEncoder

	// dirtyGens/dirtyIdx are the per-generation dirty log: a ring of the
	// board indices each of the last dirtyLogGens generations committed,
	// so delta readers resolve "changed since S" without a fleet scan.
	dirtyGens []uint64
	dirtyIdx  [][]int

	// stateCounts/savingsSum are the fleet-wide aggregates, maintained
	// incrementally at commit time so HealthAPIv1 and the gauges never walk
	// the fleet — at 100k boards a per-generation walk under mu is the
	// difference between flat and falling QPS.
	stateCounts StateCounts
	savingsSum  float64

	runMu sync.Mutex // serializes Run calls
}

// maxTransitions bounds the retained transition log.
const maxTransitions = 8192

// boardID names board i; the format is part of the determinism contract
// (dump lines and JSON snapshots key on it).
func boardID(i int) string { return fmt.Sprintf("board-%02d", i) }

// initState wires the store and clock hooks of a fresh manager. With
// Config.StoreDir set the store journals to the durable segmented log;
// opening that log can fail (bad directory, torn-beyond-repair disk).
func (m *Manager) initState(cfg Config) error {
	m.cfg = cfg
	if cfg.StoreDir != "" {
		s, err := OpenStore(cfg.StoreDir, cfg.StoreCap, cfg.DedupWindow, cfg.RetainAge,
			cfg.StoreSegmentBytes, cfg.StoreMaxSegments)
		if err != nil {
			return err
		}
		m.store = s
	} else {
		m.store = NewStore(cfg.StoreCap, cfg.DedupWindow, cfg.RetainAge)
	}
	m.store.SetClock(func() time.Duration { return m.clock })
	m.dirtyGens = make([]uint64, dirtyLogGens)
	m.dirtyIdx = make([][]int, dirtyLogGens)
	return nil
}

// Close releases the fleet's event store, syncing a durable journal to
// disk, and returns the store's first journal error. The manager must not
// be used afterwards.
func (m *Manager) Close() error { return m.store.Close() }

// buildBoard fabricates board i's die from a seed derived off the master
// seed, characterizes its safe floor by bisection (the fast §2.2
// protocol), and programs the initial guardband operating point. It
// depends only on (cfg, i).
func buildBoard(cfg *Config, suite []*workload.Spec, i int) (*board, error) {
	b := &board{
		id:     boardID(i),
		index:  i,
		corner: cfg.Corners[i%len(cfg.Corners)],
		spec:   suite[i%len(suite)],
		coreID: i % silicon.NumCores,
	}
	fabSeed := core.CampaignSeed(cfg.Seed, b.id, "fabrication", b.corner.String(), b.index)
	b.machine = xgene.New(silicon.NewChip(b.corner, fabSeed))
	b.dog = watchdog.New(b.machine, 2)
	runSeed := core.CampaignSeed(cfg.Seed, b.id, b.spec.Name, b.spec.Input, b.coreID)
	b.rng = randsrc.New(runSeed)
	intervalSeed := core.CampaignSeed(cfg.Seed, b.id, "poll-interval", "", b.index)
	b.ivalRng = randsrc.New(intervalSeed)

	if err := characterize(cfg, b); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", b.id, err)
	}
	b.margins = b.machine.Assess(b.coreID, b.spec, units.RegimeOf(units.MaxFrequency))
	b.gb = newGuardband(cfg.Guardband, b.floor)
	b.applyOperatingPoint()
	b.nextDue = b.nextInterval(cfg)
	return b, nil
}

// commitInitial indexes the built boards and commits their initial
// operating points at virtual time zero, in board order — the store's
// first Boards entries. Generation 1 is the snapshot readers' first key.
func (m *Manager) commitInitial() {
	m.byID = make(map[string]int, len(m.boards))
	for i, b := range m.boards {
		m.byID[b.id] = i
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock = 0
	m.status = make([]BoardStatus, 0, len(m.boards))
	for i, b := range m.boards {
		if n := m.store.Append(Event{
			Board: b.id, Kind: UndervoltApplied, MV: int(b.voltage()),
			Msg: fmt.Sprintf("floor %v + margin %v", b.floor, b.gb.marginMV()),
		}); n > 0 {
			m.m.evicted.Add(float64(n))
		}
		m.m.events.With(UndervoltApplied.String()).Inc()
		s := b.status(0)
		m.status = append(m.status, s)
		m.logDirtyLocked(1, i)
		m.stateCounts.Add(s.State, 1)
		m.savingsSum += s.Savings
	}
	m.gen.Store(1)
}

// Generation returns the fleet's snapshot generation. It changes exactly
// when a Run commit changes the observable snapshots, so readers may
// serve cached serializations while it is unchanged.
func (m *Manager) Generation() uint64 { return m.gen.Load() }

// characterize finds a board's safe floor with the fast bisection
// protocol on its own derived seed.
func characterize(cfg *Config, b *board) error {
	fw := core.New(b.machine)
	ccfg := core.DefaultConfig([]*workload.Spec{b.spec}, []int{b.coreID})
	characterizeSeed := core.CampaignSeed(cfg.Seed, b.id, "characterize", b.spec.ID(), b.coreID)
	ccfg.Seed = characterizeSeed
	res, err := fw.FindVminFast(b.spec, b.coreID, ccfg, cfg.ConfirmRuns)
	if err != nil {
		return err
	}
	b.floor = res.SafeVmin
	return nil
}

// commitLocked folds one poll outcome into the store, transition log,
// status table and counters, advancing the virtual clock to the poll's
// due time (which stamps the appended events). gen is the generation
// the enclosing Run is committing; it marks the board dirty for the
// delta-snapshot encoder.
func (m *Manager) commitLocked(o *pollOutcome, gen uint64) {
	m.clock = o.due
	m.vclock.Store(int64(o.due))
	for _, e := range o.events {
		if n := m.store.Append(e); n > 0 {
			m.m.evicted.Add(float64(n))
		}
		m.m.events.With(e.Kind.String()).Inc()
	}
	if t := o.transition; t != nil {
		m.tseq++
		t.Seq = m.tseq
		t.At = o.due
		m.transitions = append(m.transitions, *t)
		if len(m.transitions) > maxTransitions {
			m.transitions = m.transitions[len(m.transitions)-maxTransitions:]
		}
		m.m.transitions.With(t.To).Inc()
	}
	m.stateCounts.Add(m.status[o.board].State, -1)
	m.savingsSum -= m.status[o.board].Savings
	m.status[o.board] = o.status
	m.stateCounts.Add(o.status.State, 1)
	m.savingsSum += o.status.Savings
	m.logDirtyLocked(gen, o.board)
	m.polled++
	m.m.polls.Inc()
	m.m.runs.Add(float64(o.runs))
	if o.rebooted {
		m.m.reboots.Inc()
	}
}

// Store returns the fleet event store.
func (m *Manager) Store() *Store { return m.store }

// EventsSince returns the store's events with At or LastAt ≥ at in
// wire form, in order (Store.EventsSince).
func (m *Manager) EventsSince(at time.Duration) []apiv1.Event { return m.store.EventsSince(at) }

// Boards returns a snapshot of every board's latest committed status.
//
//xvolt:lint-ignore unusedexport frozen perfbench calls it until the next benchmark change deletes it (ROADMAP item 1)
func (m *Manager) Boards() []BoardStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]BoardStatus(nil), m.status...)
}

// HasBoard reports whether id names one of the fleet's boards.
func (m *Manager) HasBoard(id string) bool {
	_, ok := m.byID[id] // ids are immutable: no lock
	return ok
}

// Transitions returns a copy of the retained health-transition log.
func (m *Manager) Transitions() []apiv1.Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]apiv1.Transition(nil), m.transitions...)
}

// TransitionsSince returns a copy of the retained transitions with a
// seq above seq, in order. The log is in seq order, so the tail is
// found by binary search and only it is copied.
func (m *Manager) TransitionsSince(seq uint64) []apiv1.Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.transitions), func(i int) bool { return m.transitions[i].Seq > seq })
	if i == len(m.transitions) {
		return nil
	}
	return append([]apiv1.Transition(nil), m.transitions[i:]...)
}

// WriteTransitions dumps the transition log one per line — the second
// byte-comparable artifact of the determinism contract.
func (m *Manager) WriteTransitions(w io.Writer) error {
	return writeTransitions(w, m.Transitions())
}

// Polled reports the total committed poll count.
//
//xvolt:lint-ignore unusedexport frozen perfbench calls it until the next benchmark change deletes it (ROADMAP item 1)
func (m *Manager) Polled() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.polled
}

// Now returns the fleet's committed virtual time.
func (m *Manager) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// HealthAPIv1 returns the /api/fleet/health document, aggregated from
// the incrementally maintained commit-time tallies — O(states), not
// O(fleet).
func (m *Manager) HealthAPIv1() apiv1.HealthSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := apiv1.HealthSummary{
		Boards:        len(m.status),
		Polls:         m.polled,
		Events:        m.store.Len(),
		DroppedEvents: m.store.Dropped(),
		DedupedEvents: m.store.Deduped(),
		Transitions:   len(m.transitions),
		VirtualNow:    m.clock,
	}
	m.stateCounts.Summarize(&h)
	if len(m.status) > 0 {
		h.MeanSavings = m.savingsSum / float64(len(m.status))
	}
	return h
}

// signedSteps renders a guardband delta with an explicit sign ("%+d"
// without fmt — the poll hot path must not box operands).
func signedSteps(delta int) string {
	if delta >= 0 {
		return "+" + strconv.Itoa(delta)
	}
	return strconv.Itoa(delta)
}
