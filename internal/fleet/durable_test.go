package fleet

import (
	"strings"
	"testing"
)

// dumpStore renders a store's byte-comparable text form.
func dumpStore(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDurableStoreReplaysByteIdentical is the durable store's invariant:
// a fleet run journaled to the segmented log, abandoned without Close
// (modelling SIGKILL), reopened and replayed, yields the exact event
// text the golden in-memory run holds — at several worker counts and
// segment layouts, including layouts small enough to force
// rotation and snapshot compaction mid-run.
func TestDurableStoreReplaysByteIdentical(t *testing.T) {
	g := evictGolden
	want := readGolden(t, g, "events.txt")

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"single", func(c *Config) {}},
		{"workers-2", func(c *Config) { c.Workers = 2 }},
		{"workers-8-tiny-segments", func(c *Config) {
			c.Workers = 8
			c.StoreSegmentBytes = 4096 // min size: rotation + compaction mid-run
			c.StoreMaxSegments = 2
		}},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := g.cfg
			cfg.StoreDir = t.TempDir()
			v.mut(&cfg)
			m := newTestManager(t, cfg)
			m.Run(g.polls)
			if err := m.Store().Err(); err != nil {
				t.Fatalf("journal error during run: %v", err)
			}
			if got := dumpStore(t, m.Store()); got != want {
				t.Fatal("live durable run diverges from the golden")
			}
			// Abandon without Close — the journal on disk is all that's left.
			reopened, err := OpenStore(cfg.StoreDir, cfg.StoreCap, cfg.DedupWindow,
				cfg.RetainAge, cfg.StoreSegmentBytes, cfg.StoreMaxSegments)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer reopened.Close()
			if got := dumpStore(t, reopened); got != want {
				t.Fatal("replayed store diverges from the golden")
			}
			if got := reopened.Dropped(); got != g.dropped {
				t.Errorf("replayed Dropped = %d, want %d", got, g.dropped)
			}
		})
	}
}

// TestManagerClose pins that Close flushes the durable store and that a
// clean Close + reopen also reproduces the reference text.
func TestManagerClose(t *testing.T) {
	cfg := Config{Boards: 3, Seed: 11, ConfirmRuns: 1, StoreDir: t.TempDir()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	want := dumpStore(t, m.Store())
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := OpenStore(cfg.StoreDir, cfg.StoreCap, cfg.DedupWindow, cfg.RetainAge, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := dumpStore(t, reopened); got != want {
		t.Fatal("store after Close+reopen diverges")
	}
}
