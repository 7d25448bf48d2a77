// Fixture: the second package whose references keep unusedexport's
// declarations.
package unusedexportuse

import (
	"fmt"

	"fixture/internal/unusedexport"
)

// Use builds and reads the fixture's types.
func Use() (float64, unusedexport.Level, unusedexport.Wire, unusedexport.Tile) {
	c := unusedexport.Config{Used: unusedexport.UsedElsewhere()}
	var sh unusedexport.Shape = unusedexport.Square{Side: float64(c.Used)}
	return sh.Area(), unusedexport.Level(c.Used), unusedexport.Wire{}, unusedexport.Tile{}
}

// Mode prints a mode through its String method.
func Mode() string { return fmt.Sprint(unusedexport.Pick(true)) }

// Fields writes and reads the fixture's structs, one form a field.
func Fields() (int, bool, int) {
	var c unusedexport.Counters
	c.Assigned = 1
	c.Tuple, _ = 2, 3
	c = unusedexport.Counters{Keyed: 4}
	c.OpAssign += 5
	c.Inc++
	p := &c.Addr
	*p = 6
	c.Inner.N = 7
	keys := map[unusedexport.Key]int{{K: 8}: 9}
	_ = unusedexport.Pair{}.Deep
	return c.Value + unusedexport.Step(), unusedexport.Pair{A: 1} == unusedexport.Pair{}, keys[unusedexport.Key{}]
}
