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

// Wire is a tagged struct: encoding/json reads its fields.
type Wire struct {
	Name  string `json:"name"`
	Extra int    `json:"extra"`
}

// Kept is referenced by nothing but kept on purpose.
//
//xvolt:lint-ignore unusedexport the fixture's pragma-kept declaration
func Kept() {}

func init() {}

var _ = 0
