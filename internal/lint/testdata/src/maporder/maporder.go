// Fixture for the maporder analyzer: map iteration feeding ordered
// output without sorting the keys first.
package maporder

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// badPrint streams rows straight out of map order.
func badPrint(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// badCSV writes CSV rows in map order — the golden-checksum breaker.
func badCSV(w io.Writer, m map[string]int) error {
	cw := csv.NewWriter(w)
	for k, v := range m {
		if err := cw.Write([]string{k, fmt.Sprint(v)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// badJoin bakes map order into a joined string.
func badJoin(m map[string]int) string {
	var parts []string
	for k := range m {
		parts = append(parts, k)
	}
	return strings.Join(parts, ",")
}

// goodSorted collects keys, sorts, then writes — the approved shape.
func goodSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// goodAccumulate only folds commutatively; no ordered output involved.
func goodAccumulate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// bank is a per-core model table keyed by core index.
type bank struct{ byCore map[int]string }

// badCores returns its keys in map order, so every caller that prints
// them inherits the randomized order.
func (b *bank) badCores() []int {
	var out []int
	for c := range b.byCore {
		out = append(out, c)
	}
	return out
}

// badNamedCores leaks map order through a named result.
func (b *bank) badNamedCores() (out []int) {
	for c := range b.byCore {
		out = append(out, c)
	}
	return
}

// goodCores sorts the keys before handing them back — the approved shape.
func (b *bank) goodCores() []int {
	out := make([]int, 0, len(b.byCore))
	for c := range b.byCore {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// goodLocal collects map values only to fold them; nothing ordered
// leaves the function.
func (b *bank) goodLocal() int {
	var names []string
	for _, n := range b.byCore {
		names = append(names, n)
	}
	return len(names)
}
