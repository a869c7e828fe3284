package byzantine

import (
	"testing"

	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func TestGeoMaxFakerPoisonsFlood(t *testing.T) {
	const n, fake = 128, 1 << 18
	g := testGraph(t, n, 8, 70)
	eng := sim.New(g, sim.WithSeed(71))
	procs := make([]sim.Proc, n)
	for v := range procs {
		if v == 0 {
			procs[v] = &GeoMaxFaker{FakeValue: fake} // Period 0 -> every round
		} else {
			procs[v] = counting.NewGeometricProc(16)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(2000); err != nil {
		t.Fatal(err)
	}
	honest := make([]bool, n)
	for v := 1; v < n; v++ {
		honest[v] = true
	}
	for _, e := range counting.DecidedEstimates(counting.Outcomes(procs), honest) {
		if e != fake {
			t.Fatalf("estimate %d, want the fake %d everywhere", e, fake)
		}
	}
}

func TestSupportMinFakerInflates(t *testing.T) {
	const n, k = 128, 16
	g := testGraph(t, n, 8, 72)
	eng := sim.New(g, sim.WithSeed(73))
	procs := make([]sim.Proc, n)
	for v := range procs {
		if v == 0 {
			procs[v] = &SupportMinFaker{K: k} // zero Value/Period exercise the defaults
		} else {
			procs[v] = counting.NewSupportProc(k, 16)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(2000); err != nil {
		t.Fatal(err)
	}
	est := procs[1].(*counting.SupportProc).EstimateN()
	if est < float64(n)*1000 {
		t.Fatalf("support estimate %g not inflated", est)
	}
}

func TestTreeCountInflaterCorruptsTotal(t *testing.T) {
	const n, inflation = 100, 1 << 16
	g := testGraph(t, n, 4, 74)
	eng := sim.New(g, sim.WithSeed(75))
	procs := make([]sim.Proc, n)
	for v := range procs {
		switch v {
		case 5:
			procs[v] = &TreeCountInflater{Inflation: inflation}
		default:
			procs[v] = counting.NewTreeCountProc(v == 0)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(20 * n); err != nil {
		t.Fatal(err)
	}
	root := procs[0].(*counting.TreeCountProc)
	o := root.Outcome()
	if !o.Decided {
		t.Fatal("root never decided")
	}
	if o.Estimate == n {
		t.Fatalf("total %d is exact despite the inflater", o.Estimate)
	}
	if o.Estimate < inflation/2 {
		t.Fatalf("total %d not visibly inflated", o.Estimate)
	}
}

func TestAttachKIdempotent(t *testing.T) {
	rng := xrand.New(76)
	w, err := NewFakeWorld(64, 4, 16, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	first := w.AttachK(sim.NodeID(1), 3)
	if len(first) != 3 {
		t.Fatalf("AttachK returned %d roots", len(first))
	}
	second := w.AttachK(sim.NodeID(1), 3)
	if len(second) != len(first) {
		t.Fatalf("idempotent AttachK returned %d roots, want %d", len(second), len(first))
	}
	asSet := func(xs []sim.NodeID) map[sim.NodeID]bool {
		m := map[sim.NodeID]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	f, s := asSet(first), asSet(second)
	for x := range f {
		if !s[x] {
			t.Fatalf("idempotent AttachK changed the root set: %v vs %v", first, second)
		}
	}
	// Clamped k.
	if got := w.AttachK(sim.NodeID(2), 100); len(got) > 8 {
		t.Fatalf("AttachK exceeded the root count: %d", len(got))
	}
	if got := w.AttachK(sim.NodeID(3), 0); len(got) != 1 {
		t.Fatalf("AttachK(0) = %d roots, want clamp to 1", len(got))
	}
}

func TestBeaconSpammerEveryRound(t *testing.T) {
	sched := counting.Schedule{StartPhase: 2, Gamma: 0.5}
	sp := NewBeaconSpammer(sched, 3, true, xrand.New(77))
	env := (&sim.Env{Neighbors: []int{1}}).WithRand(xrand.New(78))
	sends := 0
	// Phase 2 iteration: offsets 0..8; beacon window sends at 0..3.
	for r := 0; r < 9; r++ {
		if out := sp.Step(env, r, nil); len(out) > 0 {
			sends++
			b := out[0].Payload.(*counting.Beacon)
			if len(b.Path) != 3 {
				t.Fatalf("prefix length %d", len(b.Path))
			}
		}
	}
	if sends != 4 {
		t.Fatalf("EveryRound spammer sent %d times in one iteration, want 4", sends)
	}
	if sp.Halted() {
		t.Error("spammer halted")
	}
}
