// Command xvolt-fleet runs the multi-board health daemon: a mixed-corner
// fleet of simulated X-Gene 2 boards, each characterized at startup and
// then operated just above its voltage floor, polled for health, and
// guarded by the online margin controller. The fleet publishes over HTTP
// (/api/fleet, /api/fleet/health, /api/fleet/{board}/events, /metrics).
//
// Usage:
//
//	xvolt-fleet -addr :8090 -boards 16 -seed 1
//	xvolt-fleet -polls 200 -dump           # batch: run, dump stores, exit
//
// The -dump mode is the determinism contract made visible: two
// invocations with the same flags emit byte-identical output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/hub"
	"xvolt/internal/obs"
	"xvolt/internal/server"
	"xvolt/internal/trace"
)

type options struct {
	addr        string
	debugAddr   string
	traceOut    string
	storeDir    string
	hubURL      string
	source      string
	boards      int
	seed        int64
	workers     int
	runsPerPoll int
	interval    time.Duration
	polls       int
	dump        bool
	chunk       int
	tick        time.Duration
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8090", "listen address (daemon mode)")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "optional debug listener (pprof + runtime-sampled /metrics)")
	flag.StringVar(&opts.traceOut, "trace-out", "", "stream finished spans as JSONL to this file ('-' for stdout)")
	flag.StringVar(&opts.storeDir, "store-dir", "", "durable event store directory (empty: in-memory store)")
	flag.StringVar(&opts.hubURL, "hub", "", "xvolt-hub base URL to push fleet state to (daemon mode)")
	flag.StringVar(&opts.source, "source", "fleet", "source name this fleet reports to the hub under")
	flag.IntVar(&opts.boards, "boards", 16, "fleet size")
	flag.Int64Var(&opts.seed, "seed", 1, "master fleet seed")
	flag.IntVar(&opts.workers, "workers", 4, "poller worker pool size (does not affect results)")
	flag.IntVar(&opts.runsPerPoll, "runs-per-poll", 2, "benchmark runs sampled per health poll")
	flag.DurationVar(&opts.interval, "interval", time.Second, "mean poll interval on the virtual clock")
	flag.IntVar(&opts.polls, "polls", 0, "with -dump: total polls to run before dumping; daemon mode: exit after this many polls (0 = run forever)")
	flag.BoolVar(&opts.dump, "dump", false, "run -polls polls, dump event store and transitions to stdout, exit")
	flag.IntVar(&opts.chunk, "chunk", 32, "polls committed per pacing tick (daemon mode)")
	flag.DurationVar(&opts.tick, "tick", 250*time.Millisecond, "wall-clock pacing between poll chunks (daemon mode)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xvolt-fleet:", err)
		os.Exit(1)
	}
}

func (o options) fleetConfig() fleet.Config {
	return fleet.Config{
		Boards:       o.boards,
		Seed:         o.seed,
		Workers:      o.workers,
		RunsPerPoll:  o.runsPerPoll,
		BaseInterval: o.interval,
		StoreDir:     o.storeDir,
	}
}

func run(ctx context.Context, opts options, out io.Writer) error {
	if opts.dump {
		if opts.polls <= 0 {
			opts.polls = 200
		}
		return dumpFleet(opts.fleetConfig(), opts.polls, out)
	}

	m, err := fleet.New(opts.fleetConfig())
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)

	tracer := trace.NewTracer(0, 1)
	m.SetTracer(tracer)
	if opts.traceOut != "" {
		w, closeOut, err := traceWriter(opts.traceOut)
		if err != nil {
			return err
		}
		defer closeOut()
		tracer.SetSink(trace.NewJSONLSink(w))
	}

	engine := obs.NewAlertEngine(reg, m.Now)
	if err := engine.Add(fleet.AlertRules()...); err != nil {
		return err
	}

	srv := server.New(nil)
	srv.SetMetrics(reg)
	srv.SetFleet(m)
	srv.SetTracer(tracer)
	srv.SetAlerts(engine)

	if opts.debugAddr != "" {
		rs := obs.NewRuntimeStats(reg)
		go func() {
			err := server.ListenAndServe(ctx, opts.debugAddr, server.DebugHandler(reg, rs), server.DefaultDrainTimeout)
			if err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("debug listener on %s (pprof, runtime metrics)", opts.debugAddr)
	}

	var pusher *hub.Pusher
	if opts.hubURL != "" {
		pusher = hub.NewPusher(clientv1.New(opts.hubURL), opts.source, m)
		log.Printf("pushing to hub %s as %q", opts.hubURL, opts.source)
	}

	// A -polls budget turns the daemon into a bounded run: serve while
	// polling, push the final state, then drain and exit — the shape the
	// CI hub smoke uses to get a deterministic cross-process window.
	loopCtx, loopDone := context.WithCancel(ctx)
	defer loopDone()
	go pollLoop(loopCtx, m, engine, pusher, opts.chunk, opts.tick, opts.polls, loopDone)

	log.Printf("fleet of %d boards on %s (seed %d, %d workers)",
		opts.boards, opts.addr, opts.seed, opts.workers)
	err = server.ListenAndServe(loopCtx, opts.addr, srv.Handler(), server.DefaultDrainTimeout)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceWriter resolves -trace-out: "-" streams to stdout, anything else
// creates/truncates the named file.
func traceWriter(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { _ = f.Close() }, nil
}

// pollLoop drives the fleet in chunks, paced on the wall clock, until the
// context ends or the poll budget is spent. Pacing only chooses when
// chunks run; the poll outcomes themselves live entirely on the fleet's
// seeded virtual clock. Alert rules are evaluated after every chunk, on
// the fleet's virtual clock; with a pusher attached each chunk's changes
// are then pushed to the hub (push failures are logged and retried
// implicitly — the next push resends the unacknowledged tail).
// budget > 0 bounds the total polls; after the final chunk is pushed,
// done is called so the daemon drains and exits.
func pollLoop(ctx context.Context, m *fleet.Manager, engine *obs.AlertEngine, pusher *hub.Pusher,
	chunk int, tick time.Duration, budget int, done context.CancelFunc) {
	if chunk <= 0 {
		chunk = 32
	}
	remaining := budget
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n := chunk
			if budget > 0 && n > remaining {
				n = remaining
			}
			m.Run(n)
			engine.Eval()
			if pusher != nil {
				if _, err := pusher.Push(ctx); err != nil && ctx.Err() == nil {
					log.Printf("hub push: %v", err)
				}
			}
			if budget > 0 {
				remaining -= n
				if remaining <= 0 {
					done()
					return
				}
			}
		}
	}
}

// dumpFleet runs a fresh fleet for a fixed number of polls and writes the
// two byte-comparable artifacts: the event store and the transition log.
// Tracing and alerting are attached exactly as in daemon mode — the dump
// is the proof that neither perturbs the poll outcomes.
func dumpFleet(cfg fleet.Config, polls int, w io.Writer) error {
	m, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.SetTracer(trace.NewTracer(0, 1))
	engine := obs.NewAlertEngine(reg, m.Now)
	if err := engine.Add(fleet.AlertRules()...); err != nil {
		return err
	}
	m.Run(polls)
	engine.Eval()
	defer func() { _ = m.Close() }()
	if _, err := fmt.Fprintf(w, "# fleet events (%d boards, %d polls, seed %d)\n",
		cfg.Boards, polls, cfg.Seed); err != nil {
		return err
	}
	if err := m.Store().WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# health transitions"); err != nil {
		return err
	}
	return m.WriteTransitions(w)
}
