package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadCheckpoint: arbitrary bytes must never panic the checkpoint
// loader, and accepted checkpoints must save/load to the same content.
func FuzzLoadCheckpoint(f *testing.F) {
	good := NewCheckpoint()
	good.mark("TTT/bwaves/ref/0/2400", []RunRecord{{Chip: "TTT", Voltage: 900}})
	var seed bytes.Buffer
	if err := good.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("{}")
	f.Add(`{"version":1}`)
	f.Add(`{"version":99,"done":["x"]}`)
	f.Add(seed.String() + `{"key":"TTT/mcf/ref/4/2400","records":[{"Chip":"T`) // torn tail
	f.Fuzz(func(t *testing.T, data string) {
		c, err := LoadCheckpoint(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("accepted checkpoint failed to save: %v", err)
		}
		again, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("saved checkpoint rejected: %v", err)
		}
		if len(again.Done) != len(c.Done) || len(again.Records) != len(c.Records) {
			t.Fatal("round trip changed checkpoint size")
		}
	})
}

// FuzzClassify: the classifier is total over arbitrary run records.
func FuzzClassify(f *testing.F) {
	f.Add(0, false, uint64(0), uint64(0), false)
	f.Add(134, true, uint64(5), uint64(1), false)
	f.Add(-1, false, uint64(0), uint64(0), true)
	f.Fuzz(func(t *testing.T, exit int, mismatch bool, ce, ue uint64, crashed bool) {
		rec := RunRecord{
			ExitCode:       exit,
			OutputMismatch: mismatch,
			DeltaCE:        ce,
			DeltaUE:        ue,
			SystemCrashed:  crashed,
		}
		obs := rec.Classify()
		// Invariants: a crash dominates; SDC requires successful exit and
		// mismatch; clean means no signals at all.
		if crashed && !obs.SC {
			t.Fatal("crash not classified SC")
		}
		if obs.SDC && (exit != 0 || !mismatch) {
			t.Fatalf("SDC without successful mismatching run: %+v", rec)
		}
		if obs.Clean() && (crashed || mismatch && exit == 0 || ce > 0 || ue > 0 || exit != 0) {
			t.Fatalf("misclassified clean: %+v -> %v", rec, obs)
		}
	})
}
