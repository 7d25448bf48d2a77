package apiv1

import (
	"runtime"
	"strings"
	"testing"
)

// TestDecoderBoundsPreallocation: the slice the scanner sizes from a
// document's '{' bytes stays within a few times the document's size,
// whatever the document holds.
func TestDecoderBoundsPreallocation(t *testing.T) {
	doc := []byte(`{"boards": [` + strings.Repeat("{", 1<<16))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := decoder{data: doc}
	if _, ok := d.boardsDoc(); ok {
		t.Fatal("scanner took a run of '{'")
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(doc)); got > limit {
		t.Errorf("scanning a %d-byte document allocated %d bytes, over %d", len(doc), got, limit)
	}
}
