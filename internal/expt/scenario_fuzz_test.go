package expt

// FuzzRunScenario drives the static scenario path — materialized and
// implicit substrates alike — over the registry axes and the numeric
// fields. Whatever the input, RunScenario returns a result or an error
// and never panics; an implicit-substrate cell that runs must match its
// materialized twin outcome for outcome. The delay and fault axes stay
// empty (FuzzLanes covers the delivery arms engine-side) and so does
// churn, which takes the dynamic path.

import (
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/xrand"
)

// registerMaterializedLattice adds a temporary registry entry that
// materializes the lattice family as a CSR, the twin the implicit
// lattice is checked against, and returns its name. The entry is
// removed at cleanup.
func registerMaterializedLattice(tb testing.TB) string {
	const name = "lattice-materialized-for-test"
	Substrates[name] = Substrate{Name: name, Deterministic: true,
		Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
			lat, err := graph.NewRingLattice(n, latticeK(d))
			if err != nil {
				return nil, err
			}
			return lat.Materialize()
		}}
	tb.Cleanup(func() { delete(Substrates, name) })
	return name
}

func FuzzRunScenario(f *testing.F) {
	// Index the axes before the test-only entry joins the registry, so
	// a corpus entry names the same cell in every run.
	protos, subs, advs, places := ProtocolNames(), SubstrateNames(), AdversaryNames(), PlacementNames()
	twins := map[string]string{
		"ring-implicit":  "ring",
		"torus-implicit": "torus",
		"lattice":        registerMaterializedLattice(f),
	}
	f.Fuzz(func(t *testing.T, proto, sub, adv, place, n, d, byz, maxPhase uint8,
		stopFrac float64, maxRounds uint16) {
		sc := Scenario{
			Proto:     protos[int(proto)%len(protos)],
			Substrate: subs[int(sub)%len(subs)],
			Adversary: advs[int(adv)%len(advs)],
			Placement: places[int(place)%len(places)],
			N:         3 + int(n)%46,
			D:         1 + int(d)%8,
			MaxPhase:  int(maxPhase) % 9,
			StopFrac:  stopFrac,
			MaxRounds: 1 + int(maxRounds)%400,
		}
		// Up to N+1: one past the population exercises the placement's
		// budget check.
		sc.Byz = int(byz) % (sc.N + 2)
		out, err := RunScenario(sc, xrand.New(7), RunOptions{})
		if err != nil {
			return
		}
		twin, ok := twins[sc.Substrate]
		if !ok {
			return
		}
		tsc := sc
		tsc.Substrate = twin
		ref, err := RunScenario(tsc, xrand.New(7), RunOptions{})
		if err != nil {
			t.Fatalf("%s ran but its materialized twin failed: %v", sc.Label(), err)
		}
		diffOutcomes(t, sc.Label(), ref, out)
	})
}
