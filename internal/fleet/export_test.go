package fleet

// CountKind tallies retained events of one kind, summing dedup
// multiplicities. Nil-safe.
func (s *Store) CountKind(k EventKind) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, r := range s.be.Records() {
		if EventKind(r.Kind) == k {
			n += r.Count
		}
	}
	return n
}
