package expt

// Implicit-substrate scenario equivalence: a cell run on an implicit
// family must be byte-identical to the same cell on its materialized
// counterpart — outcomes, honest mask, Byzantine placement, rounds, and
// the full engine metrics — at every worker count. This is the
// registry-level counterpart of the sim-layer transcript pin, and it is
// what licenses the scaling lane to report implicit-lattice numbers as
// "the ring/torus scenarios, at n=10^6".

import (
	"reflect"
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// runCell executes one scenario cell from a fresh seed-derived stream.
func runCell(t *testing.T, sc Scenario, workers int) *ScenarioOutcome {
	t.Helper()
	out, err := RunScenario(sc, xrand.New(42).Split("cell"), RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("RunScenario(%s): %v", sc.Label(), err)
	}
	return out
}

// diffOutcomes compares everything two scenario outcomes observable
// agree on (Graph/Topology/Engine/Procs/Runner identities excluded).
func diffOutcomes(t *testing.T, label string, a, b *ScenarioOutcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("%s: outcomes diverge", label)
	}
	if !reflect.DeepEqual(a.Honest, b.Honest) {
		t.Errorf("%s: honest masks diverge", label)
	}
	if !reflect.DeepEqual(a.Byz, b.Byz) {
		t.Errorf("%s: Byzantine placements diverge", label)
	}
	if a.Rounds != b.Rounds {
		t.Errorf("%s: rounds %d != %d", label, a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("%s: metrics diverge", label)
	}
}

// TestImplicitScenarioMatchesMaterialized pins the registered implicit
// families to their materialized counterparts, serial and parallel,
// benign and under spam.
func TestImplicitScenarioMatchesMaterialized(t *testing.T) {
	pairs := []struct {
		implicit, materialized string
	}{
		{"ring-implicit", "ring"},
		{"torus-implicit", "torus"},
	}
	for _, pair := range pairs {
		for _, byz := range []int{0, 6} {
			sc := Scenario{Substrate: pair.materialized, N: 240, D: 8, Byz: byz, MaxPhase: 6}
			if byz > 0 {
				sc.Adversary = "spam"
			}
			ref := runCell(t, sc, 1)
			if ref.Graph == nil || ref.Topology != nil {
				t.Fatalf("%s: materialized cell should carry a Graph", pair.materialized)
			}
			for _, workers := range []int{1, 8} {
				sci := sc
				sci.Substrate = pair.implicit
				got := runCell(t, sci, workers)
				if got.Graph != nil || got.Topology == nil {
					t.Fatalf("%s: implicit cell should carry a Topology, not a Graph", pair.implicit)
				}
				diffOutcomes(t, pair.implicit+"/byz="+string(rune('0'+byz)), ref, got)
			}
		}
	}
}

// TestLatticeScenarioMatchesMaterialized checks the k-nearest lattice
// family (which has no standing materialized registry name) against a
// temporary registry entry built from RingLattice.Materialize.
func TestLatticeScenarioMatchesMaterialized(t *testing.T) {
	matName := registerMaterializedLattice(t)
	sc := Scenario{Substrate: matName, N: 246, D: 8, Byz: 6, Adversary: "spam", Placement: "spread", MaxPhase: 6}
	ref := runCell(t, sc, 1)
	for _, workers := range []int{1, 8} {
		sci := sc
		sci.Substrate = "lattice"
		got := runCell(t, sci, workers)
		diffOutcomes(t, "lattice", ref, got)
	}
}

// TestImplicitChurnRejected: churn composes only with the dynamically
// maintained hnd family; implicit families must be rejected loudly.
func TestImplicitChurnRejected(t *testing.T) {
	for _, name := range []string{"ring-implicit", "torus-implicit", "lattice"} {
		sc := Scenario{Substrate: name, Churn: ChurnProfile{Leaves: 1, Joins: 1}}
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: churn accepted on an implicit substrate", name)
		}
	}
}

// Compile-time: the implicit builders return topologies that are also
// TopologyDegrees, so the engine's slab budgets engage on every
// registered implicit family.
var _ = func() bool {
	for _, name := range []string{"ring-implicit", "torus-implicit", "lattice"} {
		topo, err := Substrates[name].Implicit(64, 8)
		if err != nil {
			panic(err)
		}
		if _, ok := topo.(sim.TopologyDegrees); !ok {
			panic(name + " topology lacks degree hints")
		}
	}
	return true
}()
