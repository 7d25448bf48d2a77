package silicon

// Clean reports a fully normal run (paper class NO).
func (e RunEffects) Clean() bool {
	return !e.SDC && !e.CE && !e.UE && !e.AC && !e.SC
}
