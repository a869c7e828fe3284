package counting

import (
	"slices"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// arenaEnv returns a standalone env with deg neighbors and its scratch
// buffer grown to one broadcast, the most a CongestProc sends per round,
// as the engine's buffer adoption would leave it.
func arenaEnv(id sim.NodeID, deg int, seed uint64) *sim.Env {
	env := (&sim.Env{ID: id, Degree: deg, Neighbors: make([]int, deg)}).WithRand(xrand.New(seed))
	env.Broadcast(Continue{})
	return env
}

// spamBeacon returns a beacon with a fabricated origin and prefix drawn
// from rng, as a spammer sends it.
func spamBeacon(rng *xrand.Rand, prefixLen int) *Beacon {
	path := make([]sim.NodeID, prefixLen)
	for k := range path {
		path[k] = sim.NodeID(rng.Uint64())
	}
	return &Beacon{Origin: sim.NodeID(rng.Uint64()), Path: path}
}

// spamInbox returns a one-beacon inbox from a spammer with true ID from.
func spamInbox(rng *xrand.Rand, from sim.NodeID, prefixLen int) []sim.Incoming {
	return []sim.Incoming{{FromID: from, Payload: spamBeacon(rng, prefixLen)}}
}

// sentBeacon returns the beacon in a step's output, or nil.
func sentBeacon(out []sim.Outgoing) *Beacon {
	for _, m := range out {
		if b, ok := m.Payload.(*Beacon); ok {
			return b
		}
	}
	return nil
}

// TestForwardedBeaconOwnership: a forwarded path is capacity-limited,
// so a receiver that appends to it gets a copy, and neither the
// sender's arena nor its shortest path changes. Beacons already sent
// keep their contents while the sender carves many more, across chunk
// boundaries.
func TestForwardedBeaconOwnership(t *testing.T) {
	params := DefaultCongestParams(4)
	c := NewCongestProc(params)
	env := arenaEnv(500, 4, 1)
	rng := xrand.New(2)
	c.Step(env, 0, nil)
	activated := c.spSet

	in := spamInbox(rng, 77, 3)
	fwd := sentBeacon(c.Step(env, 1, in))
	if fwd == nil {
		t.Fatal("no beacon forwarded in the beacon window")
	}
	got := in[0].Payload.(*Beacon)
	if want := append(slices.Clone(got.Path), 77); !slices.Equal(fwd.Path, want) || fwd.Origin != got.Origin {
		t.Fatalf("forwarded %d %v, want %d %v", fwd.Origin, fwd.Path, got.Origin, want)
	}
	if cap(fwd.Path) != len(fwd.Path) {
		t.Fatalf("forwarded path has cap %d > len %d: a receiver's append would write into the arena", cap(fwd.Path), len(fwd.Path))
	}
	if !activated && &c.sp[0] != &fwd.Path[0] {
		t.Fatal("the accepted path should be the forwarded one")
	}
	arena := slices.Clone(c.ids[:cap(c.ids)])
	sp, sentPath := slices.Clone(c.sp), slices.Clone(fwd.Path)

	grown := append(fwd.Path, 1, 2, 3)
	grown[0] = 4
	if !slices.Equal(c.ids[:cap(c.ids)], arena) {
		t.Fatal("appending to a received path changed the sender's arena")
	}
	if !slices.Equal(c.sp, sp) || !slices.Equal(fwd.Path, sentPath) {
		t.Fatal("appending to a received path changed the sender's path or shortest path")
	}

	// A second receiver forwards the same beacon from its own arena.
	r := NewCongestProc(params)
	renv := arenaEnv(600, 4, 3)
	r.Step(renv, 0, nil)
	rfwd := sentBeacon(r.Step(renv, 1, []sim.Incoming{{FromID: 500, Payload: fwd}}))
	if rfwd == nil || !slices.Equal(rfwd.Path, append(slices.Clone(sentPath), 500)) {
		t.Fatalf("receiver forwarded %v", rfwd)
	}
	if !slices.Equal(fwd.Path, sentPath) {
		t.Fatal("forwarding changed the received beacon")
	}

	// Beacons stay intact while the sender keeps carving: drive enough
	// forwards to fill several ID and header chunks.
	origin := fwd.Origin
	loc := NewLocator(params.Schedule)
	forwards := 0
	for round := 2; forwards < 4*maxBeaconChunk; round++ {
		if l := loc.Locate(round); l.Offset == 0 || l.Offset > l.Phase+1 {
			c.Step(env, round, nil)
			continue
		}
		if sentBeacon(c.Step(env, round, spamInbox(rng, 77, 6))) != nil {
			forwards++
		}
	}
	if fwd.Origin != origin || !slices.Equal(fwd.Path, sentPath) {
		t.Fatal("a sent beacon changed while its sender forwarded more")
	}
}

// TestCongestStepAllocs: warm CongestProcs forwarding beacon spam carve
// paths and headers from their arenas, allocating at most once per four
// beacons sent. Each process has a spammer neighbor that sends a fresh
// beacon with a six-ID fabricated prefix (the experiments' spam shape)
// and a continue every round, so every beacon-window round forwards and
// no process exits.
func TestCongestStepAllocs(t *testing.T) {
	const procs, deg, spammer = 64, 8, sim.NodeID(1 << 50)
	params := DefaultCongestParams(deg)
	cs := make([]*CongestProc, procs)
	envs := make([]*sim.Env, procs)
	for v := range cs {
		cs[v] = NewCongestProc(params)
		envs[v] = arenaEnv(sim.NodeID(1000+v), deg, uint64(v))
	}
	// Inboxes are built ahead of the measurement, one fresh spam beacon
	// per round shared by all processes, as a spammer's broadcast is.
	const warm, runs, roundsPerRun = 200, 20, 25
	rng := xrand.New(9)
	inboxes := make([][]sim.Incoming, warm+(runs+1)*roundsPerRun)
	for r := range inboxes {
		inboxes[r] = append(spamInbox(rng, spammer, 6), sim.Incoming{FromID: spammer, Payload: Continue{}})
	}
	round, sent := 0, 0
	step := func() {
		for v, c := range cs {
			if sentBeacon(c.Step(envs[v], round, inboxes[round])) != nil {
				sent++
			}
		}
		round++
	}
	for round < warm {
		step()
	}
	calls := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if calls++; calls == 2 {
			sent = 0 // AllocsPerRun's first call is a warm-up
		}
		for k := 0; k < roundsPerRun; k++ {
			step()
		}
	})
	for v, c := range cs {
		if c.Halted() {
			t.Fatalf("process %d exited under continue flooding", v)
		}
	}
	perRun := float64(sent) / runs
	if perRun < procs {
		t.Fatalf("only %.1f beacons sent per run; the workload must forward in most windows", perRun)
	}
	if allocs*4 > perRun {
		t.Errorf("%.1f allocs per run for %.1f beacons sent, want at most 1 per 4", allocs, perRun)
	}
	t.Logf("%.1f allocs per run, %.1f beacons sent", allocs, perRun)
}

// testSpammer broadcasts a fresh fabricated beacon every round: the
// beacon-spam adversary, rebuilt here because the byzantine package
// imports this one.
type testSpammer struct{ rng *xrand.Rand }

func (s *testSpammer) Halted() bool { return false }

func (s *testSpammer) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return env.Broadcast(spamBeacon(s.rng, 6))
}

// runCongestSpam runs Algorithm 2 on H(256, 8) with eight spammers
// under jittered delivery, so beacons stay in flight for several rounds
// while their senders keep carving from the same arena chunks.
func runCongestSpam(t *testing.T, workers int) ([]Outcome, sim.Metrics) {
	t.Helper()
	const n, d = 256, 8
	g, err := graph.HND(n, d, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(6), sim.WithParallelism(workers),
		sim.WithDelayModel(sim.UniformDelay{Min: 1, Max: 4}))
	params := DefaultCongestParams(d)
	procs := make([]sim.Proc, n)
	honest := allHonest(n)
	for v := range procs {
		if v%32 == 0 {
			procs[v], honest[v] = &testSpammer{rng: xrand.New(uint64(v))}, false
		} else {
			procs[v] = NewCongestProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(params.Schedule.RoundsThroughPhase(6)); err != nil {
		t.Fatal(err)
	}
	var out []Outcome
	for v, p := range procs {
		if honest[v] {
			out = append(out, p.(*CongestProc).Outcome())
		}
	}
	return out, eng.Metrics()
}

// TestCongestArenaParallelVT: receivers on several engine workers read
// shared *Beacon payloads while their senders carve new paths next to
// them in the same chunk; the run matches the serial one exactly. Run
// under -race it checks that forwarding never writes to memory a
// receiver can see.
func TestCongestArenaParallelVT(t *testing.T) {
	serial, sm := runCongestSpam(t, 1)
	parallel, pm := runCongestSpam(t, 4)
	if !slices.Equal(serial, parallel) {
		t.Fatal("parallel outcomes differ from serial")
	}
	if sm.Messages != pm.Messages || sm.Messages == 0 {
		t.Fatalf("messages: serial %d, parallel %d", sm.Messages, pm.Messages)
	}
}
