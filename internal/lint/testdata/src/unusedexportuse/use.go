// Fixture: the second package whose references keep unusedexport's
// declarations.
package unusedexportuse

import "fixture/internal/unusedexport"

// Use builds and reads the fixture's types.
func Use() (float64, unusedexport.Level, unusedexport.Wire, unusedexport.Tile) {
	c := unusedexport.Config{Used: unusedexport.UsedElsewhere()}
	var sh unusedexport.Shape = unusedexport.Square{Side: float64(c.Used)}
	return sh.Area(), unusedexport.Level(c.Used), unusedexport.Wire{}, unusedexport.Tile{}
}
