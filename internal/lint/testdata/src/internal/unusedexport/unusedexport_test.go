package unusedexport

// testsOnly is the only caller of OnlyTests, and the only code outside
// Action's group that names an Action.
func testsOnly() (int, string) { return OnlyTests(), Abort.String() }
