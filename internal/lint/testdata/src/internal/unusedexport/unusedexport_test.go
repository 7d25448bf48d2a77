package unusedexport

// testsOnly is the only caller of OnlyTests.
func testsOnly() int { return OnlyTests() }
