package sim_test

// Virtual-time scheduler guards.
//
// The first is the unit-latency equivalence property: an engine with
// sim.UnitDelay installed must produce delivery transcripts (and
// metrics) byte-identical to one with no delay model — across seeds
// {42, 7}, worker counts {1, 3, 8}, and churn on/off. Both run the
// delivery ring at unit latency; the synchronous lanes these tests once
// compared against are gone, and the committed digests in
// transcript_test.go and the churn pins, recorded from those lanes,
// remain the reference for them.
//
// The rest are direct checks of the scheduler itself: fixed latencies
// arrive exactly d ticks later, jittered and region/GST schedules are
// identical at every worker count, partitions drop cross-group traffic
// during exactly their window, drop faults count in Dropped but never
// in Messages, and the spec-string grammar round-trips.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// vtSeeds are the seed pairs the unit-latency equivalence property is
// checked across (ISSUE 7 satellite: seeds {42, 7}).
var vtSeeds = []uint64{42, 7}

// runTranscriptSeeded is runTranscript with every seed derived from
// `seed` and the delivery models configurable — the workhorse of the
// equivalence property. A nil delay means unit latency, so nil and
// sim.UnitDelay{} must run the same schedule.
func runTranscriptSeeded(t *testing.T, seed uint64, workers int, delay sim.DelayModel, fault sim.FaultModel) (string, sim.Metrics, int) {
	t.Helper()
	const n, d = 192, 8
	g := mustHND(t, n, d, seed+1)
	rng := xrand.New(seed + 2)
	byz, err := byzantine.RandomPlacement(g, 6, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)

	eng := sim.New(g,
		sim.WithSeed(seed),
		sim.WithParallelism(workers),
		sim.WithEdgeCapacity(512),
		sim.WithDelayModel(delay),
		sim.WithFaultModel(fault))
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	spamRng := xrand.New(seed + 3)
	for v := range procs {
		var inner sim.Proc
		if byz[v] {
			inner = byzantine.NewBeaconSpammer(params.Schedule, 6, true, spamRng.SplitN("spam", v))
		} else {
			inner = counting.NewCongestProc(params)
		}
		recs[v] = &transcriptProc{inner: inner}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := eng.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, rec := range recs {
		for i := 0; i < 8; i++ {
			buf[i] = byte(rec.sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), eng.Metrics(), rounds
}

// runChurnTranscriptSeeded is the churn-side workhorse: the congest
// counting run under a join/leave storm of churn_test.go, with the
// seeds parameterized and the delay model configurable.
func runChurnTranscriptSeeded(t *testing.T, seed uint64, workers int, delay sim.DelayModel) (string, sim.Metrics) {
	t.Helper()
	const n, d = 128, 8
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	net, err := dynamic.NewNetwork(n, d, xrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]uint64, 4*n) // room for slot-table growth
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: 2, Joins: 2, StopAfter: 60, Mixed: true}, seed+2,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
			return &slotDigestProc{inner: counting.NewCongestProc(params), slot: slot, sums: sums}
		})
	if err != nil {
		t.Fatal(err)
	}
	run.SetParallelism(workers)
	run.SetDelayModel(delay)
	if _, err := run.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, sum := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), run.Metrics()
}

// TestVTUnitMatchesLegacyStatic is the equivalence property on the
// static congest-under-spam scenario: for every seed and worker count,
// an engine with sim.UnitDelay{} reproduces the nil-model engine's
// transcript digest, metrics, and round count exactly.
func TestVTUnitMatchesLegacyStatic(t *testing.T) {
	for _, seed := range vtSeeds {
		for _, w := range workerCounts {
			legacyDig, legacyM, legacyR := runTranscriptSeeded(t, seed, w, nil, nil)
			vtDig, vtM, vtR := runTranscriptSeeded(t, seed, w, sim.UnitDelay{}, nil)
			if vtDig != legacyDig {
				t.Errorf("seed=%d workers=%d: unit-latency digest %s != legacy %s", seed, w, vtDig, legacyDig)
			}
			if !reflect.DeepEqual(vtM, legacyM) {
				t.Errorf("seed=%d workers=%d: metrics diverge:\nlegacy: %+v\nvt:     %+v", seed, w, legacyM, vtM)
			}
			if vtR != legacyR {
				t.Errorf("seed=%d workers=%d: rounds %d != legacy %d", seed, w, vtR, legacyR)
			}
		}
	}
}

// TestVTUnitMatchesLegacyChurn is the same property with churn on: a
// join/leave storm over the mutable topology, where Detach/AttachAt
// drop and reset ring rows whichever way unit latency was requested.
func TestVTUnitMatchesLegacyChurn(t *testing.T) {
	for _, seed := range vtSeeds {
		for _, w := range workerCounts {
			legacyDig, legacyM := runChurnTranscriptSeeded(t, seed, w, nil)
			vtDig, vtM := runChurnTranscriptSeeded(t, seed, w, sim.UnitDelay{})
			if vtDig != legacyDig {
				t.Errorf("seed=%d workers=%d: churn unit-latency digest %s != legacy %s", seed, w, vtDig, legacyDig)
			}
			if !reflect.DeepEqual(vtM, legacyM) {
				t.Errorf("seed=%d workers=%d: churn metrics diverge:\nlegacy: %+v\nvt:     %+v", seed, w, legacyM, vtM)
			}
		}
	}
}

// TestVTDelayDeterministicAcrossWorkers pins the new determinism claim
// itself: under drawing and non-drawing delay models (and a drop
// fault), the parallel virtual-time engine produces the serial engine's
// transcript digest and metrics at every worker count.
func TestVTDelayDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		delay sim.DelayModel
		fault sim.FaultModel
	}{
		{"uniform", sim.UniformDelay{Min: 1, Max: 4}, nil},
		{"geometric", sim.GeometricDelay{P: 0.5, Cap: 6}, nil},
		{"region", sim.RegionDelay{Regions: 3, Near: 1, Far: 3}, nil},
		{"gst", sim.GSTDelay{GST: 20, Inner: sim.UniformDelay{Min: 1, Max: 5}}, nil},
		{"drop", sim.UniformDelay{Min: 1, Max: 2}, sim.DropFault{P: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDig, wantM, wantR := runTranscriptSeeded(t, 42, 1, tc.delay, tc.fault)
			if wantM.Messages == 0 {
				t.Fatal("scenario delivered no messages")
			}
			for _, w := range workerCounts[1:] {
				gotDig, gotM, gotR := runTranscriptSeeded(t, 42, w, tc.delay, tc.fault)
				if gotDig != wantDig {
					t.Errorf("workers=%d: digest %s != serial %s", w, gotDig, wantDig)
				}
				if !reflect.DeepEqual(gotM, wantM) {
					t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, gotM)
				}
				if gotR != wantR {
					t.Errorf("workers=%d: rounds %d != serial %d", w, gotR, wantR)
				}
			}
		})
	}
}

// probe is a tiny payload for the directed scheduler checks.
type probe struct{}

func (probe) SizeBits() int { return 8 }

// proberProc broadcasts a probe in the rounds sendIn reports true for
// and counts deliveries per round. It never halts.
type proberProc struct {
	sendIn func(round int) bool
	recv   map[int]int
}

func (p *proberProc) Halted() bool { return false }

func (p *proberProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) > 0 {
		if p.recv == nil {
			p.recv = make(map[int]int)
		}
		p.recv[round] += len(in)
	}
	if p.sendIn != nil && p.sendIn(round) {
		return env.Broadcast(probe{})
	}
	return nil
}

// runProbePair runs a two-vertex engine where vertex 0 broadcasts in
// the selected rounds and vertex 1 listens, and returns vertex 1's
// per-round delivery counts plus the metrics.
func runProbePair(t *testing.T, delay sim.DelayModel, fault sim.FaultModel, rounds int, sendIn func(int) bool) (map[int]int, sim.Metrics) {
	t.Helper()
	g := graph.New(2)
	g.AddEdge(0, 1)
	eng := sim.New(g, sim.WithSeed(9), sim.WithDelayModel(delay), sim.WithFaultModel(fault))
	sender := &proberProc{sendIn: sendIn}
	receiver := &proberProc{}
	if err := eng.Attach([]sim.Proc{sender, receiver}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return receiver.recv, eng.Metrics()
}

// TestVTFixedDelayArrival checks the ring arithmetic directly: a probe
// sent at tick s under a fixed delay d arrives at tick s+d, for d
// beyond the double-buffer horizon and across ring wraparound.
func TestVTFixedDelayArrival(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		recv, m := runProbePair(t, sim.UniformDelay{Min: d, Max: d}, nil, 20,
			func(r int) bool { return r == 0 || r == 7 })
		want := map[int]int{0 + d: 1, 7 + d: 1}
		if !reflect.DeepEqual(recv, want) {
			t.Errorf("delay=%d: arrivals %v, want %v", d, recv, want)
		}
		if m.Messages != 2 || m.Dropped != 0 {
			t.Errorf("delay=%d: metrics %+v, want 2 messages, 0 dropped", d, m)
		}
	}
}

// TestVTGSTDelayArrival checks the partial-synchrony switch: before GST
// the inner fixed delay applies, from GST on everything takes one tick.
func TestVTGSTDelayArrival(t *testing.T) {
	model := sim.GSTDelay{GST: 5, Inner: sim.UniformDelay{Min: 4, Max: 4}}
	recv, _ := runProbePair(t, model, nil, 20,
		func(r int) bool { return r == 0 || r == 10 })
	want := map[int]int{4: 1, 11: 1} // pre-GST: 0+4; post-GST: 10+1
	if !reflect.DeepEqual(recv, want) {
		t.Errorf("arrivals %v, want %v", recv, want)
	}
}

// TestVTRegionDelayArrival checks the asymmetric model: vertices 0 and
// 1 fall in different regions of a 2-region split, so their edge gets
// the Far latency.
func TestVTRegionDelayArrival(t *testing.T) {
	recv, _ := runProbePair(t, sim.RegionDelay{Regions: 2, Near: 1, Far: 3}, nil, 10,
		func(r int) bool { return r == 2 })
	want := map[int]int{5: 1}
	if !reflect.DeepEqual(recv, want) {
		t.Errorf("arrivals %v, want %v", recv, want)
	}
}

// TestVTDropFault checks the loss accounting at the extremes: P=1 loses
// everything into Dropped (Messages stays 0), P=0 loses nothing.
func TestVTDropFault(t *testing.T) {
	always := func(int) bool { return true }
	recv, m := runProbePair(t, nil, sim.DropFault{P: 1}, 10, always)
	if len(recv) != 0 || m.Messages != 0 || m.Dropped != 10 {
		t.Errorf("P=1: arrivals %v, metrics %+v; want none delivered, 10 dropped", recv, m)
	}
	recv, m = runProbePair(t, nil, sim.DropFault{P: 0}, 10, always)
	if m.Messages != 10 || m.Dropped != 0 || len(recv) != 9 {
		t.Errorf("P=0: arrivals %v, metrics %+v; want 10 delivered (9 in-window), 0 dropped", recv, m)
	}
}

// TestVTPartitionWindow checks the partition fault's exact window on a
// 4-cycle whose every edge crosses the 2-group round-robin split:
// deliveries stop for sends in [From, Heal) and resume after, and every
// blocked send is counted in Dropped.
func TestVTPartitionWindow(t *testing.T) {
	const rounds, from, heal = 12, 3, 7
	g := graph.New(4)
	for v := 0; v < 4; v++ {
		g.AddEdge(v, (v+1)%4)
	}
	eng := sim.New(g, sim.WithSeed(11),
		sim.WithFaultModel(sim.PartitionFault{Groups: 2, From: from, Heal: heal}))
	procs := make([]sim.Proc, 4)
	recs := make([]*proberProc, 4)
	for v := range procs {
		recs[v] = &proberProc{sendIn: func(int) bool { return true }}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	for v, rec := range recs {
		for r := 1; r < rounds; r++ {
			blocked := r-1 >= from && r-1 < heal // delivery at r carries sends from r-1
			if blocked && rec.recv[r] != 0 {
				t.Errorf("vertex %d: %d deliveries at round %d inside the partition window", v, rec.recv[r], r)
			}
			if !blocked && rec.recv[r] != 2 {
				t.Errorf("vertex %d: %d deliveries at round %d outside the window, want 2", v, rec.recv[r], r)
			}
		}
	}
	m := eng.Metrics()
	wantDropped := int64(4 * 2 * (heal - from)) // 4 senders x 2 edges x window
	if m.Dropped != wantDropped {
		t.Errorf("Dropped = %d, want %d", m.Dropped, wantDropped)
	}
}

// TestParseDelayModel checks the spec grammar: canonical specs
// round-trip through Name, and malformed specs error.
func TestParseDelayModel(t *testing.T) {
	valid := []string{"unit", "uniform:1-4", "uniform:2-2", "geo:0.5@6", "region:3/1/4", "gst:16/uniform:1-6", "gst:0/unit"}
	for _, spec := range valid {
		m, err := sim.ParseDelayModel(spec)
		if err != nil {
			t.Errorf("ParseDelayModel(%q): %v", spec, err)
			continue
		}
		if m.Name() != spec {
			t.Errorf("ParseDelayModel(%q).Name() = %q, want round-trip", spec, m.Name())
		}
		if m.MaxDelay() < 1 {
			t.Errorf("ParseDelayModel(%q).MaxDelay() = %d, want >= 1", spec, m.MaxDelay())
		}
	}
	if m, err := sim.ParseDelayModel(""); err != nil || m != nil {
		t.Errorf("ParseDelayModel(\"\") = %v, %v; want nil, nil", m, err)
	}
	invalid := []string{"bogus", "uniform:", "uniform:0-4", "uniform:5-2", "geo:1.5@4", "geo:0.5", "region:1/1/2", "region:2/0/2", "gst:-1/unit", "gst:4/", "gst:4/bogus", "geo:NaN@4", "geo:0.0001@4"}
	for _, spec := range invalid {
		if _, err := sim.ParseDelayModel(spec); err == nil {
			t.Errorf("ParseDelayModel(%q): expected error", spec)
		}
	}
}

// TestParseFaultModel is TestParseDelayModel's fault-side counterpart.
func TestParseFaultModel(t *testing.T) {
	valid := []string{"drop:0.1", "drop:1", "partition:2@10", "partition:3@5-40"}
	for _, spec := range valid {
		m, err := sim.ParseFaultModel(spec)
		if err != nil {
			t.Errorf("ParseFaultModel(%q): %v", spec, err)
			continue
		}
		if m.Name() != spec {
			t.Errorf("ParseFaultModel(%q).Name() = %q, want round-trip", spec, m.Name())
		}
	}
	for _, spec := range []string{"", "none"} {
		if m, err := sim.ParseFaultModel(spec); err != nil || m != nil {
			t.Errorf("ParseFaultModel(%q) = %v, %v; want nil, nil", spec, m, err)
		}
	}
	invalid := []string{"bogus", "drop:", "drop:1.5", "drop:-0.1", "drop:NaN", "partition:1@5", "partition:2@5-3", "partition:2@-1", "partition:2"}
	for _, spec := range invalid {
		if _, err := sim.ParseFaultModel(spec); err == nil {
			t.Errorf("ParseFaultModel(%q): expected error", spec)
		}
	}
}

// TestVTNewDispatch pins New's constructor dispatch: a *graph.Graph
// takes the static fast path, any other Topology the mutable path, and
// the two paths assign identical IDs from the same seed (what lets a
// static run be re-hosted on a mutable topology without re-deriving
// anything).
func TestVTNewDispatch(t *testing.T) {
	g := mustHND(t, 64, 4, 3)
	a := sim.New(g, sim.WithSeed(77))
	if a.Graph() == nil {
		t.Fatal("New over a *graph.Graph must take the static path")
	}
	net, err := dynamic.NewNetwork(64, 4, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	d := sim.New(sim.Topology(net), sim.WithSeed(77))
	if d.Graph() != nil {
		t.Fatal("New over a non-graph topology must not take the static path")
	}
	if a.Slots() != d.Slots() || a.ID(0) != d.ID(0) {
		t.Fatalf("constructor paths disagree: slots %d/%d id %d/%d", a.Slots(), d.Slots(), a.ID(0), d.ID(0))
	}
}
