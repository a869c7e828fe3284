package counting

import (
	"math"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// runCongestBenign wires a CongestProc onto every vertex of an H(n,d)
// graph and runs until all nodes exit (or maxRounds).
func runCongestBenign(t *testing.T, n, d int, seed uint64) ([]Outcome, *sim.Engine, int) {
	t.Helper()
	rng := xrand.New(seed)
	g, err := graph.HND(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(seed+1))
	params := DefaultCongestParams(d)
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	rounds, err := eng.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return Outcomes(procs), eng, rounds
}

func allHonest(n int) []bool {
	h := make([]bool, n)
	for i := range h {
		h[i] = true
	}
	return h
}

func TestCongestBenignAllDecide(t *testing.T) {
	const n, d = 256, 8
	outcomes, _, rounds := runCongestBenign(t, n, d, 1)
	honest := allHonest(n)
	if frac := DecidedFraction(outcomes, honest); frac != 1 {
		t.Fatalf("decided fraction = %g, want 1", frac)
	}
	// Corollary 1: the benign run terminates quickly (O(log n) phases
	// means few hundred rounds at this scale, far below the Byzantine
	// bound of O(B log^2 n)).
	if rounds > 2000 {
		t.Errorf("benign run took %d rounds", rounds)
	}
}

func TestCongestBenignEstimateScalesWithN(t *testing.T) {
	// The point of the protocol: bigger networks yield bigger estimates.
	mean := func(n int, seed uint64) float64 {
		outcomes, _, _ := runCongestBenign(t, n, 8, seed)
		vals := DecidedEstimates(outcomes, allHonest(n))
		sum := 0.0
		for _, v := range vals {
			sum += float64(v)
		}
		return sum / float64(len(vals))
	}
	small := mean(64, 2)
	large := mean(1024, 3)
	if large <= small {
		t.Errorf("estimate did not grow with n: mean(64)=%g mean(1024)=%g", small, large)
	}
}

func TestCongestBenignEstimateNearLogDN(t *testing.T) {
	const n, d = 512, 8
	outcomes, _, _ := runCongestBenign(t, n, d, 4)
	honest := allHonest(n)
	logd := LogD(n, d) // = 3
	// Most nodes should land within a constant factor of log_d n; at this
	// scale the algorithm decides within [logd, 3*logd] (the start phase
	// and beacon decay set the constants).
	frac := FractionWithinFactor(outcomes, honest, logd*0.5, logd*3+2)
	if frac < 0.9 {
		t.Errorf("only %g of nodes within factor bounds of log_d n = %g", frac, logd)
	}
}

func TestCongestBenignMostNodesAgreeWithinOne(t *testing.T) {
	const n, d = 256, 8
	outcomes, _, _ := runCongestBenign(t, n, d, 5)
	counts := map[int]int{}
	for _, o := range outcomes {
		if o.Decided {
			counts[o.Estimate]++
		}
	}
	best, bestCount := 0, 0
	for v, c := range counts {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	near := 0
	for v, c := range counts {
		if v >= best-1 && v <= best+1 {
			near += c
		}
	}
	if frac := float64(near) / float64(n); frac < 0.9 {
		t.Errorf("estimates too dispersed: mode %d covers only %g within ±1 (counts=%v)", best, frac, counts)
	}
}

func TestCongestBenignSmallMessages(t *testing.T) {
	const n, d = 256, 8
	_, eng, _ := runCongestBenign(t, n, d, 6)
	m := eng.Metrics()
	// A beacon path is at most i+2 hops with i = O(log n): message size
	// stays well under a kilobit at this scale.
	if m.MaxMsgBits > 64*(20+2)+80 {
		t.Errorf("max message size %d bits is not small", m.MaxMsgBits)
	}
	if m.Violations != 0 {
		t.Errorf("honest protocol produced %d addressing violations", m.Violations)
	}
}

func TestCongestDeterministicRuns(t *testing.T) {
	a, _, roundsA := runCongestBenign(t, 128, 8, 7)
	b, _, roundsB := runCongestBenign(t, 128, 8, 7)
	if roundsA != roundsB {
		t.Fatalf("round counts differ: %d vs %d", roundsA, roundsB)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("outcome %d differs: %+v vs %+v", v, a[v], b[v])
		}
	}
}

func TestCongestOutcomeBeforeRun(t *testing.T) {
	p := NewCongestProc(DefaultCongestParams(8))
	o := p.Outcome()
	if o.Decided || o.Exited {
		t.Errorf("fresh proc outcome = %+v", o)
	}
	if p.Halted() {
		t.Error("fresh proc halted")
	}
}

func TestCongestMaxPhaseForcesDecision(t *testing.T) {
	// With absurd parameters (c1 so large everyone beacons forever), the
	// MaxPhase safety must still terminate each node.
	const n, d = 64, 4
	rng := xrand.New(8)
	g, err := graph.HND(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(9))
	params := DefaultCongestParams(d)
	params.C1 = 1e12 // activation probability 1 in every phase
	params.MaxPhase = 4
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 2)
	if _, err := eng.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	outcomes := Outcomes(procs)
	for v, o := range outcomes {
		if !o.Decided {
			t.Fatalf("vertex %d never decided despite MaxPhase", v)
		}
		if o.Estimate > 5 {
			t.Errorf("vertex %d decided %d beyond MaxPhase+1", v, o.Estimate)
		}
	}
}

func TestCongestRingStillTerminates(t *testing.T) {
	// The algorithm's guarantees need an expander, but it must not hang on
	// a ring: ball sizes grow linearly so beacons die out early and nodes
	// decide small values.
	const n = 64
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(10))
	params := DefaultCongestParams(2)
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	if _, err := eng.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	for v, o := range Outcomes(procs) {
		if !o.Decided {
			t.Fatalf("ring vertex %d never decided", v)
		}
	}
}

func TestPrefixToBlacklist(t *testing.T) {
	path := []sim.NodeID{1, 2, 3, 4, 5}
	if got := prefixToBlacklist(path, 2); len(got) != 3 || got[2] != 3 {
		t.Errorf("prefixToBlacklist = %v", got)
	}
	if got := prefixToBlacklist(path, 5); got != nil {
		t.Errorf("full-suffix prefix = %v", got)
	}
	if got := prefixToBlacklist(path, 10); got != nil {
		t.Errorf("oversize-suffix prefix = %v", got)
	}
}

func TestBeaconSizeBits(t *testing.T) {
	b := &Beacon{Origin: 1, Path: []sim.NodeID{2, 3}}
	if b.SizeBits() != 16+64+128 {
		t.Errorf("SizeBits = %d", b.SizeBits())
	}
	var c Continue
	if c.SizeBits() != 16 {
		t.Errorf("continue SizeBits = %d", c.SizeBits())
	}
}

func TestLogHelpers(t *testing.T) {
	if Log2(8) != 3 {
		t.Errorf("Log2(8) = %g", Log2(8))
	}
	if Log2(0) != 0 {
		t.Errorf("Log2(0) = %g", Log2(0))
	}
	if math.Abs(LogD(512, 8)-3) > 1e-12 {
		t.Errorf("LogD(512,8) = %g", LogD(512, 8))
	}
	if LogD(0, 8) != 0 || LogD(8, 1) != 0 {
		t.Error("degenerate LogD")
	}
}

func TestOutcomesHelpers(t *testing.T) {
	outcomes := []Outcome{
		{Decided: true, Estimate: 4},
		{Decided: true, Estimate: 8},
		{Decided: false},
		{Decided: true, Estimate: 100}, // Byzantine vertex, excluded below
	}
	honest := []bool{true, true, true, false}
	if got := DecidedFraction(outcomes, honest); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("DecidedFraction = %g", got)
	}
	vals := DecidedEstimates(outcomes, honest)
	if len(vals) != 2 || vals[0] != 4 || vals[1] != 8 {
		t.Errorf("DecidedEstimates = %v", vals)
	}
	if got := FractionWithinFactor(outcomes, honest, 3, 5); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("FractionWithinFactor = %g", got)
	}
	if DecidedFraction(outcomes, []bool{false, false, false, false}) != 0 {
		t.Error("no honest nodes should give 0")
	}
}
