package workload

// Flips reports how many corruptions are scheduled.
func (b *Bitflip) Flips() int { return b.flips }

// NumPrograms returns how many distinct program names are registered.
func NumPrograms() int {
	names := map[string]bool{}
	for _, s := range All() {
		names[s.Name] = true
	}
	return len(names)
}
