// Fixture for hotalloc: annotated hot paths must stay
// allocation-disciplined, and functions the config requires to be hot
// must actually carry the annotation.
package hotalloc

import "fmt"

// hot breaks every rule at once.
//
//xvolt:hotpath fixture hot path
func hot(m map[string]int, n int) []int {
	fmt.Println("tick")
	for k := range m {
		_ = k
	}
	var out []int
	for i := 0; i < n; i++ {
		defer release()
		out = append(out, i)
	}
	return out
}

func release() {}

// cool is annotated and clean: preallocated, no fmt, no map ranges.
//
//xvolt:hotpath fixture clean hot path
func cool(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// MustHot is listed in HotpathRequired but carries no annotation.
func MustHot() {}

// free is unannotated: the hot-path rules do not apply here.
func free(m map[string]int) {
	fmt.Println(len(m))
	for k := range m {
		_ = k
	}
}

// bitflip schedules faults in a map, rebuilt for every run.
type bitflip struct {
	flipAt map[int]uint
	calls  int
}

// newBitflip is a map-scheduled injector's constructor on a hot path:
// every call builds a map.
//
//xvolt:hotpath fixture map-building hot path
func newBitflip(draw func(int) int, flips int) *bitflip {
	b := &bitflip{flipAt: make(map[int]uint, flips)}
	for len(b.flipAt) < flips {
		idx := draw(64)
		if _, dup := b.flipAt[idx]; dup {
			continue
		}
		b.flipAt[idx] = uint(40 + draw(23))
	}
	return b
}

// weights builds a map from a literal on a hot path.
//
//xvolt:hotpath fixture map-literal hot path
func weights(k string) int {
	return map[string]int{"sdc": 4, "ce": 1}[k]
}
