package tensor

// keySet is a set of encoded coordinates supporting O(1) insert, O(1)
// amortized delete and — crucially — order-preserving iteration: keys are
// visited in insertion order, with deletions leaving the relative order of
// the survivors untouched.
//
// Order preservation is a durability requirement, not a nicety. Checkpoints
// serialize the tensor in iteration order and restore re-inserts in that
// order, so iteration order must be a pure function of the surviving key
// sequence for a restored tensor to iterate — and therefore accumulate
// MTTKRP/fitness sums — bit-identically to the live one. A swap-with-last
// delete (the previous implementation) breaks that: the order it produces
// depends on where deletions happened, which the surviving sequence alone
// cannot reproduce.
//
// Deletions therefore tombstone their slot and a compaction sweep (which
// preserves order) reclaims slots once half the backing array is dead,
// keeping every operation O(1) amortized and allocation-free in steady
// state.
//
// The whole-tensor registry also carries each key's value in vals, the
// slot beside it in keys, so whole-tensor scans read (key, value) pairs
// sequentially instead of probing a hash map per nonzero. The per-fiber
// registries hold keys only and leave vals nil.
type keySet struct {
	keys []uint64 // insertion order; dead slots hold tombstone
	vals []float64
	pos  map[uint64]int
	dead int
}

// tombstone marks a deleted slot. No real key can collide with it: keys
// are strictly below the tensor capacity, whose computation panics on
// uint64 overflow, so a stored key never equals ^uint64(0).
const tombstone = ^uint64(0)

func newKeySet() *keySet {
	return &keySet{pos: make(map[uint64]int)}
}

// Len returns the number of keys in the set.
func (s *keySet) Len() int { return len(s.keys) - s.dead }

// Add inserts k if absent.
func (s *keySet) Add(k uint64) {
	if _, ok := s.pos[k]; ok {
		return
	}
	s.pos[k] = len(s.keys)
	s.keys = append(s.keys, k)
}

// insert appends k, known to be absent, with value v. Value-carrying sets
// only.
func (s *keySet) insert(k uint64, v float64) {
	s.pos[k] = len(s.keys)
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, v)
}

// Remove deletes k if present.
func (s *keySet) Remove(k uint64) {
	if i, ok := s.pos[k]; ok {
		s.removeAt(k, i)
	}
}

// removeAt deletes k, stored in slot i, tombstoning the slot so the
// surviving iteration order is unchanged. When half the slots are dead a
// compaction sweep (order-preserving, in place) reclaims them, so the
// amortized cost stays O(1) and iteration overhead is bounded at 2×.
func (s *keySet) removeAt(k uint64, i int) {
	s.keys[i] = tombstone
	delete(s.pos, k)
	s.dead++
	if 2*s.dead >= len(s.keys) {
		s.compact()
	}
}

// compact squeezes tombstones out in place, preserving order and moving
// each value with its key.
func (s *keySet) compact() {
	live := s.keys[:0]
	for j, k := range s.keys {
		if k == tombstone {
			continue
		}
		if s.vals != nil {
			s.vals[len(live)] = s.vals[j]
		}
		s.pos[k] = len(live)
		live = append(live, k)
	}
	s.keys = live
	if s.vals != nil {
		s.vals = s.vals[:len(live)]
	}
	s.dead = 0
}

// ForEach calls fn for every key in insertion order. fn must not mutate
// the set.
func (s *keySet) ForEach(fn func(k uint64)) {
	for _, k := range s.keys {
		if k == tombstone {
			continue
		}
		fn(k)
	}
}
