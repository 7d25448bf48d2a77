package apiv1_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	apiv1 "xvolt/api/v1"
)

// TestReadBody: a body reads back whole however its length is declared
// (exactly, not at all, too short, or far too long), and a body read at
// its declared length takes one allocation, the buffer itself. A read
// error is returned as it is.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 13400/16)
	for _, declared := range []int64{int64(len(body)), -1, 10, 0, 1 << 40} {
		got, err := apiv1.ReadBody(iotest.HalfReader(bytes.NewReader(body)), declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, %v; want all %d", declared, len(got), err, len(body))
		}
	}
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := apiv1.ReadBody(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("a body read at its declared length allocated %v times, want 1", allocs)
	}
	boom := errors.New("boom")
	if _, err := apiv1.ReadBody(iotest.ErrReader(boom), 10); err != boom {
		t.Errorf("read error = %v, want %v", err, boom)
	}
}

// TestReadBodyBoundsPreallocation: a declared length buys at most 1 MiB
// of buffer before the body arrives, so a peer that declares a
// terabyte and sends nothing holds no more of the reader's heap.
func TestReadBodyBoundsPreallocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := apiv1.ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), 1<<40)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF || got != nil {
		t.Errorf("ReadBody = %d bytes, %v; want the read error", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+64<<10 {
		t.Errorf("a terabyte declared bought %d bytes", alloc)
	}
}
