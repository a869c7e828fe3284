package counting

import (
	"math"
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// checkSetAgainst compares every ID in universe, plus the probe IDs,
// between the set and the reference map.
func checkSetAgainst(t *testing.T, s *idSet, ref map[sim.NodeID]struct{}, probes []sim.NodeID) {
	t.Helper()
	for _, id := range probes {
		_, want := ref[id]
		if got := s.has(id); got != want {
			t.Fatalf("has(%d) = %v, reference %v (n=%d gen=%d slots=%d)", id, got, want, s.n, s.gen, len(s.keys))
		}
	}
	if s.n != len(ref) {
		t.Fatalf("set holds %d IDs, reference %d", s.n, len(ref))
	}
}

// TestIDSetMatchesMap drives the set and a map[sim.NodeID]struct{}
// through the same random add/has/reset sequence. Phases are long
// enough to grow the table several times; IDs are drawn from a small
// universe (so adds repeat and lookups hit) mixed with arbitrary 64-bit
// values (so lookups miss on occupied probe chains).
func TestIDSetMatchesMap(t *testing.T) {
	rng := xrand.New(31)
	universe := make([]sim.NodeID, 300)
	for i := range universe {
		if i%2 == 0 {
			universe[i] = sim.NodeID(i)
		} else {
			universe[i] = sim.NodeID(rng.Uint64())
		}
	}
	var s idSet
	ref := make(map[sim.NodeID]struct{})
	maxSlots := 0
	for op := 0; op < 40000; op++ {
		switch r := rng.Intn(1000); {
		case r < 2:
			s.reset()
			clear(ref)
		case r < 600:
			id := universe[rng.Intn(len(universe))]
			if r%7 == 0 {
				id = sim.NodeID(rng.Uint64())
			}
			s.add(id)
			ref[id] = struct{}{}
		default:
			id := universe[rng.Intn(len(universe))]
			if r%5 == 0 {
				id = sim.NodeID(rng.Uint64())
			}
			_, want := ref[id]
			if got := s.has(id); got != want {
				t.Fatalf("op %d: has(%d) = %v, reference %v", op, id, got, want)
			}
		}
		maxSlots = max(maxSlots, len(s.keys))
		if op%997 == 0 {
			checkSetAgainst(t, &s, ref, universe)
		}
	}
	checkSetAgainst(t, &s, ref, universe)
	if maxSlots < 256 {
		t.Fatalf("table reached only %d slots; the sequence must grow it several times", maxSlots)
	}
}

// TestIDSetGenerationWrap: when the generation counter wraps, reset
// clears the stamps, so an ID inserted 2^32 generations earlier (whose
// slot still carries the stamp the counter comes back to) is not
// reported as present.
func TestIDSetGenerationWrap(t *testing.T) {
	var s idSet
	stale := []sim.NodeID{1, 2, 3, 1 << 40}
	for _, id := range stale {
		s.add(id)
	}
	staleGen := s.gen
	// Stand in for 2^32-1 resets since the stale IDs were added: the
	// counter sits one reset before wrapping back around to staleGen.
	s.gen = math.MaxUint32
	s.n = 0
	for k := 0; k < 3; k++ {
		s.reset()
		if k == 0 && s.gen != staleGen {
			t.Fatalf("wrapped generation = %d, want %d to exercise the stale stamps", s.gen, staleGen)
		}
		s.add(99) // makes the set non-empty, so has probes the table
		for _, id := range stale {
			if s.has(id) {
				t.Fatalf("reset %d after wrap: stale ID %d still present", k, id)
			}
		}
		if !s.has(99) || s.n != 1 {
			t.Fatalf("reset %d after wrap: set lost its one live ID (n=%d)", k, s.n)
		}
	}
}

// TestIDSetZeroValue: the zero set is empty and usable, before and
// after a reset.
func TestIDSetZeroValue(t *testing.T) {
	var s idSet
	if s.has(0) || s.has(7) {
		t.Fatal("zero set reports members")
	}
	s.reset()
	if s.has(0) {
		t.Fatal("reset zero set reports members")
	}
	s.add(0)
	if !s.has(0) || s.has(1) {
		t.Fatal("set with {0} answers wrongly")
	}
}
