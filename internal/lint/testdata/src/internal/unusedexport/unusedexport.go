// Fixture for the unusedexport analyzer: an internal package whose
// declarations are referenced from a second fixture package, from this
// package's test file, from themselves, or not at all.
package unusedexport

import "strconv"

// UnusedExported is referenced by nothing.
func UnusedExported() {}

// unusedHelper is referenced by nothing.
func unusedHelper() {}

// OnlyTests is called from the _test.go file alone.
func OnlyTests() int { return 1 }

// Recurse calls only itself.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// UsedElsewhere is called from the second fixture package.
func UsedElsewhere() int { return 2 }

// Config is built and read by the second package; Unread is not.
type Config struct {
	Used   int
	Unread int
}

// Shape is the interface the second package calls Area through.
type Shape interface{ Area() float64 }

// Square reaches Area only by dynamic dispatch.
type Square struct{ Side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Tile's Area shares Shape's method name but not its signature, so no
// interface call reaches it.
type Tile struct{}

// Area does not implement Shape.
func (Tile) Area() int { return 0 }

// Level has String and MarshalJSON, which fmt and encoding/json call.
type Level int

// String implements fmt.Stringer.
func (l Level) String() string { return "level-" + strconv.Itoa(int(l)) }

// MarshalJSON implements json.Marshaler.
func (l Level) MarshalJSON() ([]byte, error) { return []byte(strconv.Quote(l.String())), nil }

// Counters is written and read by the second package, one form a field:
// a field only written is flagged, a field read in any form is not.
type Counters struct {
	Assigned int // written by `=`
	Tuple    int // written by a tuple `=`
	Keyed    int // written by a composite-literal key
	OpAssign int // read by `+=`
	Inc      int // read by `++`
	Addr     int // read by `&`
	Value    int // read as a value
	Inner    Inner
}

// Inner is reached through Counters.Inner: the selector reads Inner,
// and `c.Inner.N = 1` writes N.
type Inner struct{ N int }

// Point is built by an unkeyed literal, which writes every field; only
// X is read.
type Point struct{ X, Y int }

// Pair is compared with ==, which reads every field, Depth.D too,
// though Deep is also read by a selector first.
type Pair struct {
	A, B int
	Deep Depth
}

// Depth is nested in Pair.
type Depth struct{ D int }

// Key is a map key: the map hashes and compares every field.
type Key struct{ K int }

// state is local to this package: live is read, dead only written.
type state struct {
	live int
	dead int
}

// Step writes both of state's fields and reads live.
func Step() int {
	s := state{dead: 1}
	s.live = 2
	return s.live + Point{1, 2}.X
}

// Wire is a tagged struct: encoding/json reads its fields.
type Wire struct {
	Name  string `json:"name"`
	Extra int    `json:"extra"`
}

// Action is an enum kept alive only by its own String method and
// constants: no non-test code outside them refers to it, so the type,
// both constants and the method are reported though String implements
// fmt.Stringer.
type Action int

// The actions.
const (
	Retry Action = iota
	Abort
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Retry:
		return "retry"
	case Abort:
		return "abort"
	}
	return "action(" + strconv.Itoa(int(a)) + ")"
}

// Mode has Action's shape, but Pick, a non-test function outside its
// group, uses it, so nothing of it is reported.
type Mode int

// The modes.
const (
	Fast Mode = iota
	Safe
)

// String names the mode.
func (m Mode) String() string {
	if m == Safe {
		return "safe"
	}
	return "fast"
}

// Pick chooses a mode; the second package calls it.
func Pick(safe bool) Mode {
	if safe {
		return Safe
	}
	return Fast
}

// Kept is referenced by nothing but kept on purpose.
//
//xvolt:lint-ignore unusedexport the fixture's pragma-kept declaration
func Kept() {}

func init() {}

var _ = 0
