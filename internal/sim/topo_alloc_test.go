//go:build !race

package sim_test

// Slab-budget guard for topology-engine construction: with a
// TopologyDegrees hint, the first round's lazy neighborhood resolution
// appends into pre-carved slab chunks instead of growing nil slices.
// Without the pre-carve, resolving n vertices costs ~3n allocations
// (Neighbors, NeighborIDs, sortedAdj each); with it, O(arcs/chunk).
// The race detector changes allocation behavior, so this file is
// excluded under -race (same convention as graph/alloc_test.go).

import (
	"runtime"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
)

// silentProc never sends and never halts — it isolates the engine's own
// resolution cost from inbox-slab growth.
type silentProc struct{}

func (silentProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (silentProc) Halted() bool                                                   { return false }

// mallocsDuring counts heap allocations across f on a quiesced heap.
func mallocsDuring(f func()) uint64 {
	mallocs, _ := heapDuring(f)
	return mallocs
}

// heapDuring counts heap allocations and bytes across f on a quiesced
// heap.
func heapDuring(f func()) (mallocs, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestEngineConstructionBudget pins construction cost for both engine
// paths: O(1) allocations (slot arrays + slab chunks, never per-vertex
// allocs) and a few hundred bytes per slot. Two regressions this
// catches, both of which shipped briefly during development: a slab
// carve that burned a fresh chunk per vertex (~O(arcs^2) bytes), and
// eager per-slot random streams (three allocations per slot, so O(n)).
func TestEngineConstructionBudget(t *testing.T) {
	const n, k = 8192, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lat.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	g.Adj(0)       // finalize outside the measured region
	g.SortedAdj(0) // (the static-graph engine aliases the shared sorted CSR)
	for _, tc := range []struct {
		name  string
		build func() *sim.Engine
	}{
		{"topology", func() *sim.Engine { return sim.New(lat, sim.WithSeed(7)) }},
		{"static", func() *sim.Engine { return sim.New(g, sim.WithSeed(7)) }},
	} {
		var eng *sim.Engine
		allocs, bytes := heapDuring(func() { eng = tc.build() })
		_ = eng
		if allocs >= 512 {
			t.Errorf("%s construction allocated %d objects (n=%d); want O(1), not per-vertex", tc.name, allocs, n)
		}
		if bytes >= 8<<20 {
			t.Errorf("%s construction allocated %d bytes (n=%d); slab or stream budget regressed", tc.name, bytes, n)
		}
	}
}

// TestTopologyEnginePrecarvedFirstRound pins the slab budget: the first
// round over a degree-hinted implicit lattice — the round that resolves
// every neighborhood — must allocate far fewer than one object per
// vertex. A regression to per-vertex buffer growth (~3n allocations)
// fails this by an order of magnitude.
func TestTopologyEnginePrecarvedFirstRound(t *testing.T) {
	const n, k = 8192, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(lat, sim.WithSeed(7))
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = silentProc{}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	allocs := mallocsDuring(func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n/4 {
		t.Errorf("first round over a degree-hinted lattice allocated %d objects (n=%d); pre-carve regressed", allocs, n)
	}
}
