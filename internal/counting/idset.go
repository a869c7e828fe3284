package counting

import (
	"math/bits"

	"byzcount/internal/sim"
)

// idSet is a set of node IDs: an open-addressed table with linear
// probing, at most half full. A slot is occupied in the current
// generation when its stamp equals gen, so reset empties the set in
// O(1) by advancing gen and keeps the table's capacity for the next
// phase. The zero value is an empty set.
type idSet struct {
	keys  []sim.NodeID
	stamp []uint32
	gen   uint32 // never 0 once the table exists: zeroed stamps are free
	n     int    // occupied slots in the current generation
	shift uint   // 64 - log2(len(keys))
}

// slot returns the home slot of id. IDs are arbitrary 64-bit values
// (tests use small integers), so Fibonacci hashing spreads them.
func (s *idSet) slot(id sim.NodeID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> s.shift)
}

// has reports whether id is in the set.
func (s *idSet) has(id sim.NodeID) bool {
	if s.n == 0 {
		return false
	}
	mask := len(s.keys) - 1
	for i := s.slot(id); s.stamp[i] == s.gen; i = (i + 1) & mask {
		if s.keys[i] == id {
			return true
		}
	}
	return false
}

// add inserts id into the set.
func (s *idSet) add(id sim.NodeID) {
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	mask := len(s.keys) - 1
	i := s.slot(id)
	for ; s.stamp[i] == s.gen; i = (i + 1) & mask {
		if s.keys[i] == id {
			return
		}
	}
	s.keys[i] = id
	s.stamp[i] = s.gen
	s.n++
}

// reset empties the set. When the generation counter wraps, the stamps
// are cleared so that no slot stamped 2^32 generations ago can match.
func (s *idSet) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}

// grow doubles the table (to 8 slots when empty) and reinserts the
// current generation's IDs.
func (s *idSet) grow() {
	keys, stamp, gen := s.keys, s.stamp, s.gen
	size := max(2*len(keys), 8)
	s.keys = make([]sim.NodeID, size)
	s.stamp = make([]uint32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.gen = 1
	s.n = 0
	for i, id := range keys {
		if stamp[i] == gen {
			s.add(id)
		}
	}
}
