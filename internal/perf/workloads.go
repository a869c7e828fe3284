package perf

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// SuiteConfig selects and scales the standard suite.
type SuiteConfig struct {
	// Quick shrinks the iteration budget for CI smoke runs: engine
	// micro-benchmarks time for ~150ms and each experiment regenerates
	// its table exactly once.
	Quick bool
	// Parallel is the worker count of the parallel engine benchmark
	// (default 8, matching the bench_test.go pinned variant).
	Parallel int
	// Filter, when non-empty, keeps only benchmarks whose name contains
	// it as a substring.
	Filter string
}

// FloodProc is the minimal engine-throughput workload: every node
// broadcasts a small payload every round. Exported so the testing.B
// benchmarks and the alloc-regression guards exercise the exact
// workload the BENCH.json trajectory records.
type FloodProc struct{}

// FloodPayload is the flood workload's constant 64-bit payload.
type FloodPayload struct{}

// SizeBits reports the payload size.
func (FloodPayload) SizeBits() int { return 64 }

// Step broadcasts the payload on every incident edge.
func (*FloodProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return env.Broadcast(FloodPayload{})
}

// Halted is always false.
func (*FloodProc) Halted() bool { return false }

// NewFloodEngine builds the flood workload over H(n,d): one engine,
// one FloodProc per vertex, the given worker count.
func NewFloodEngine(n, d, workers int) (*sim.Engine, error) {
	return NewVTFloodEngine(n, d, workers, "")
}

// NewVTFloodEngine is NewFloodEngine with a delay-model spec (see
// sim.ParseDelayModel): the event-queue throughput workload. The empty
// spec and "unit" both run unit latency (the empty spec installs no
// model, "unit" installs UnitDelay and reserves the ring rows), and a
// jitter spec like "uniform:1-4" measures the calendar-queue ring under
// real reordering — the configurations the engine/vt-flood/* trajectory
// entries and the TestSteadyStateAllocsVT* gates record.
func NewVTFloodEngine(n, d, workers int, delaySpec string) (*sim.Engine, error) {
	g, err := graph.HND(n, d, xrand.New(4))
	if err != nil {
		return nil, err
	}
	delay, err := sim.ParseDelayModel(delaySpec)
	if err != nil {
		return nil, err
	}
	eng := sim.New(g,
		sim.WithSeed(5),
		sim.WithParallelism(workers),
		sim.WithDelayModel(delay))
	procs := make([]sim.Proc, g.N())
	for v := range procs {
		procs[v] = &FloodProc{}
	}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	// One message per edge per round bounds simultaneous arrivals at a
	// (ring slot, vertex) row by in-degree x max delay; reserving it
	// keeps warm rounds strictly allocation-free (see
	// sim.Engine.ReserveInbox).
	if delay != nil {
		eng.ReserveInbox(d * delay.MaxDelay())
	}
	return eng, nil
}

// floodProcShared is the one FloodProc instance every vertex of the
// churn workloads shares: the proc is stateless, so sharing is safe in
// both engine modes, and the join factory installs it without
// allocating — which is what keeps churn rounds at zero allocations.
var floodProcShared FloodProc

// NewChurnFloodEngine builds the flood workload under continuous churn:
// the dynamically maintained H(n,d) topology with perRound leaves and
// perRound joins applied between every pair of rounds, forever, on the
// unified engine, with well-mixed event randomness (Churn.Mixed, so
// departures hit uniformly random nodes and the whole membership really
// turns over — not the legacy derivation E15 pins). This is the dynamic
// path's entry in the perf trajectory: steady-state churn rounds —
// membership turnover, cycle repair, epoch-driven neighborhood
// re-resolution included — must allocate nothing, exactly like the
// static flood.
func NewChurnFloodEngine(n, d, workers, perRound int) (*dynamic.Runner, error) {
	net, err := dynamic.NewNetwork(n, d, xrand.New(4))
	if err != nil {
		return nil, err
	}
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: perRound, Joins: perRound, Mixed: true}, 5,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc { return &floodProcShared })
	if err != nil {
		return nil, err
	}
	run.SetParallelism(workers)
	return run, nil
}

// SpamProc is the adversary side of the churn-byz workload: a
// Byzantine node that broadcasts a beacon-sized payload every round.
// Like the honest FloodProc it is stateless and shared across slots, and
// its payload is a zero-size struct, so adversary traffic adds zero
// allocations — which is what lets the churn-byz gate hold the combined
// churn + adversary path to the same 0 allocs/round budget as the
// benign flood.
type SpamProc struct{}

// SpamPayload mimics a 6-hop beacon's wire size (origin + path + tag).
type SpamPayload struct{}

// SizeBits reports the payload size.
func (SpamPayload) SizeBits() int { return 16 + 64 + 64*6 }

// Step broadcasts the spam payload on every incident edge.
func (*SpamProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return env.Broadcast(SpamPayload{})
}

// Halted is always false: the adversary never stops.
func (*SpamProc) Halted() bool { return false }

// spamProcShared is the one SpamProc instance every Byzantine slot
// shares, mirroring floodProcShared.
var spamProcShared SpamProc

// churnByzFrac is the Byzantine fraction the churn-byz workload's
// roster maintains (1/16 of the membership).
const churnByzFrac = 1.0 / 16

// NewChurnByzEngine builds the combined churn + adversary workload: the
// dynamically maintained H(n,d) under perRound leaves and joins per
// round (Mixed randomness, forever), with a byzantine.Roster keeping
// 1/16 of the membership Byzantine as it turns over — initial members
// by RandomPlacement, joiners by the roster's drift-free Bernoulli
// draw. Honest slots flood, Byzantine slots spam beacon-sized payloads.
// Steady-state rounds — turnover, cycle repair, roster re-evaluation,
// epoch-driven re-resolution, adversary traffic included — allocate
// exactly 0 (the engine/churn-byz gate).
func NewChurnByzEngine(n, d, workers, perRound int) (*dynamic.Runner, error) {
	net, err := dynamic.NewNetwork(n, d, xrand.New(4))
	if err != nil {
		return nil, err
	}
	rng := xrand.New(6)
	mask, err := byzantine.RandomPlacement(net, int(churnByzFrac*float64(n)), rng.Split("place"))
	if err != nil {
		return nil, err
	}
	roster, err := byzantine.NewRoster(mask, net.NumAlive(), churnByzFrac, rng.Split("roster"))
	if err != nil {
		return nil, err
	}
	initial := true
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: perRound, Joins: perRound, Mixed: true}, 5,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
			isByz := roster.IsByz(slot)
			if !initial {
				isByz = roster.OnJoin(slot)
			}
			if isByz {
				return &spamProcShared
			}
			return &floodProcShared
		})
	if err != nil {
		return nil, err
	}
	initial = false
	run.SetLeaveHook(roster.OnLeave)
	run.SetParallelism(workers)
	return run, nil
}

// RelayPayload is the hop-limited payload of the sparse pulse/relay
// workload: Hops is the remaining time-to-live.
type RelayPayload struct{ Hops int }

// SizeBits reports the payload size (64-bit body + 16-bit TTL tag).
func (RelayPayload) SizeBits() int { return 80 }

// maxRelayTTL bounds the pulse workload's time-to-live; relayPayloads
// pre-boxes one payload per remaining-hop count so relaying never
// allocates an interface box in steady state.
const maxRelayTTL = 7

var relayPayloads = [maxRelayTTL + 1]sim.Payload{
	RelayPayload{Hops: 0}, RelayPayload{Hops: 1}, RelayPayload{Hops: 2},
	RelayPayload{Hops: 3}, RelayPayload{Hops: 4}, RelayPayload{Hops: 5},
	RelayPayload{Hops: 6}, RelayPayload{Hops: 7},
}

// PulseProc is the sparse workload's seeder: every Period rounds it
// broadcasts a TTL-limited pulse, and stays silent in between. It sends
// on its own schedule — round-driven, NOT TickDriven — so it is also
// the proc that keeps the engine honest about mixing marked and
// unmarked processes: ticks are only skipped when the pulse schedule
// and the ring are both idle... except they never are here, because a
// round-driven proc must be stepped every tick. The sparse win in this
// workload is delivery-side (occupancy rows), not tick-skipping.
type PulseProc struct {
	Period int
	TTL    int
}

// Step broadcasts a pulse on schedule rounds and is silent otherwise.
func (p *PulseProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if round%p.Period != 0 {
		return nil
	}
	return env.Broadcast(relayPayloads[p.TTL])
}

// Halted is always false: the pulse schedule never ends.
func (*PulseProc) Halted() bool { return false }

// relayStep is the shared relay logic: rebroadcast the strongest
// delivered pulse with its TTL decremented, do nothing on an empty
// inbox. Both the marked RelayProc and the unmarked denseRelayProc
// dispatch here, so the sparse/full benchmark pair measures scheduler
// overhead, not workload drift.
func relayStep(env *sim.Env, in []sim.Incoming) []sim.Outgoing {
	if len(in) == 0 {
		return nil
	}
	best := 0
	for _, m := range in {
		if rp, ok := m.Payload.(RelayPayload); ok && rp.Hops > best {
			best = rp.Hops
		}
	}
	if best == 0 {
		return nil
	}
	return env.Broadcast(relayPayloads[best-1])
}

// RelayProc is the sparse workload's message-driven relay: it only ever
// reacts to delivered pulses, so it carries the TickDriven marker and
// lets the engine's occupancy-aware lane skip every row (and, when
// nothing round-driven is attached, every tick) that received nothing.
type RelayProc struct{}

// Step relays the strongest delivered pulse (see relayStep).
func (*RelayProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return relayStep(env, in)
}

// Halted is always false.
func (*RelayProc) Halted() bool { return false }

// StepsOnMessagesOnly marks RelayProc as sim.TickDriven: an empty-inbox
// Step is a no-op by construction.
func (*RelayProc) StepsOnMessagesOnly() {}

// denseRelayProc is RelayProc without the TickDriven marker — the
// control arm of the sparse benchmarks. A separate type rather than an
// embedding so the marker method cannot leak in via promotion.
type denseRelayProc struct{}

func (*denseRelayProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return relayStep(env, in)
}

func (*denseRelayProc) Halted() bool { return false }

// relayProcShared / denseRelayProcShared are the one instance each
// workload shares across vertices (the procs are stateless), mirroring
// floodProcShared.
var (
	relayProcShared      RelayProc
	denseRelayProcShared denseRelayProc
)

// NewVTSparseEngine builds the sparse pulse/relay workload over H(n,d):
// vertex 0 pulses a TTL-2 broadcast every 8 rounds, every other vertex
// relays, all under uniform:1-4 jitter, so each pulse wakes a few
// hundred of the n rows and the rest of the ring stays untouched. With
// dense=false the relays are TickDriven and the engine runs its
// occupancy-aware lane — serial or sharded, delivery cost tracks
// messages actually in flight, not n; with dense=true the relays are
// unmarked and every tick pays the full O(n)-row scan (O(n/workers)
// per worker), which is the control the engine/vt-flood/sparse/full
// entry records.
func NewVTSparseEngine(n, d, workers int, dense bool) (*sim.Engine, error) {
	g, err := graph.HND(n, d, xrand.New(4))
	if err != nil {
		return nil, err
	}
	delay, err := sim.ParseDelayModel("uniform:1-4")
	if err != nil {
		return nil, err
	}
	eng := sim.New(g,
		sim.WithSeed(5),
		sim.WithParallelism(workers),
		sim.WithDelayModel(delay))
	procs := make([]sim.Proc, g.N())
	for v := range procs {
		if dense {
			procs[v] = &denseRelayProcShared
		} else {
			procs[v] = &relayProcShared
		}
	}
	procs[0] = &PulseProc{Period: 8, TTL: 2}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	eng.ReserveInbox(d * delay.MaxDelay())
	// The send-side twin: under the sharded engine each pulse wave is
	// scattered across per-(worker, shard, slot) buckets whose loads are
	// stochastic, so their capacities would converge to high water only
	// asymptotically; 2 x the per-row arrival bound is a comfortable
	// per-bucket burst ceiling, and the reservation makes warm parallel
	// sparse rounds strictly allocation-free (the
	// TestSteadyStateAllocsVTSparseParallel gate).
	eng.ReserveOutbox(2 * d * delay.MaxDelay())
	return eng, nil
}

// TokenPayload is the token workload's constant 64-bit payload.
type TokenPayload struct{}

// SizeBits reports the payload size.
func (TokenPayload) SizeBits() int { return 64 }

// tokenPayloadShared is the pre-boxed token every forward reuses.
var tokenPayloadShared sim.Payload = TokenPayload{}

// TokenInjectProc seeds the token workload: it sends one token to
// vertex 1 in its first Step and then halts. It is round-driven (it
// sends on an empty inbox), so it must NOT carry the TickDriven marker
// — the engine steps it until it halts, and only then does tick
// fast-forwarding engage.
type TokenInjectProc struct{ fired bool }

// Step sends the single token on the first call.
func (p *TokenInjectProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if p.fired {
		return nil
	}
	p.fired = true
	out := append(env.Scratch(), sim.Outgoing{To: 1, Payload: tokenPayloadShared})
	return out
}

// Halted reports whether the token has been injected.
func (p *TokenInjectProc) Halted() bool { return p.fired }

// TokenRelayProc circulates the token around the C_n^2 ring lattice:
// on receipt it forwards to (v+1) mod n, detouring to v+2 when the
// successor is the halted injector at vertex 0 (both are lattice
// neighbors). Exactly one token is ever in flight, so under jittered
// delay most virtual ticks deliver nothing — the workload the
// engine/vt-skip trajectory entries measure fast-forwarding on.
type TokenRelayProc struct{ N int }

// Step forwards any delivered token one position around the ring.
func (p *TokenRelayProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) == 0 {
		return nil
	}
	next := (env.Vertex + 1) % p.N
	if next == 0 {
		next = 1
	}
	out := env.Scratch()
	for range in {
		out = append(out, sim.Outgoing{To: next, Payload: tokenPayloadShared})
	}
	return out
}

// Halted is always false: the token circulates forever.
func (*TokenRelayProc) Halted() bool { return false }

// StepsOnMessagesOnly marks TokenRelayProc as sim.TickDriven.
func (*TokenRelayProc) StepsOnMessagesOnly() {}

// denseTokenRelayProc is TokenRelayProc without the marker — the full-
// scan control arm of the vt-skip benchmarks (again a separate type, not
// an embedding, so the marker cannot be promoted in).
type denseTokenRelayProc struct{ N int }

func (p *denseTokenRelayProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) == 0 {
		return nil
	}
	next := (env.Vertex + 1) % p.N
	if next == 0 {
		next = 1
	}
	out := env.Scratch()
	for range in {
		out = append(out, sim.Outgoing{To: next, Payload: tokenPayloadShared})
	}
	return out
}

func (*denseTokenRelayProc) Halted() bool { return false }

// NewVTSkipEngine builds the token-passing workload on the ring lattice
// C_n^2 (WattsStrogatz with beta=0): one token injected at round 0,
// relayed around the ring forever under uniform:1-4 jitter. After the
// injector halts every live proc is message-driven, so with dense=false
// the engine — serial or sharded, both schedulers fast-forward —
// skips through the ~2.5 empty ticks between consecutive hops;
// dense=true swaps in unmarked relays and the engine must execute
// every tick — the before/after pair behind the >= 2x vt-skip
// acceptance gate.
func NewVTSkipEngine(n, workers int, dense bool) (*sim.Engine, error) {
	g, err := graph.WattsStrogatz(n, 2, 0, xrand.New(4))
	if err != nil {
		return nil, err
	}
	delay, err := sim.ParseDelayModel("uniform:1-4")
	if err != nil {
		return nil, err
	}
	eng := sim.New(g,
		sim.WithSeed(5),
		sim.WithParallelism(workers),
		sim.WithDelayModel(delay))
	procs := make([]sim.Proc, g.N())
	if dense {
		relay := &denseTokenRelayProc{N: n}
		for v := range procs {
			procs[v] = relay
		}
	} else {
		relay := &TokenRelayProc{N: n}
		for v := range procs {
			procs[v] = relay
		}
	}
	procs[0] = &TokenInjectProc{}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	eng.ReserveInbox(4 * delay.MaxDelay())
	return eng, nil
}

// sparseBenchmark measures the pulse/relay workload; one iteration is
// one virtual tick.
func sparseBenchmark(name string, n, d, workers int, dense bool, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		Warmup:  64,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			eng, err := NewVTSparseEngine(n, d, workers, dense)
			if err != nil {
				return nil, err
			}
			return func(iters int) (Totals, error) {
				before := eng.Metrics().Messages
				if _, err := eng.Run(iters); err != nil {
					return Totals{}, err
				}
				return Totals{
					Msgs:   eng.Metrics().Messages - before,
					Rounds: int64(iters),
				}, nil
			}, nil
		},
	}
}

// skipBenchmark measures the token workload; one iteration is one
// virtual tick (skipped ticks included — fast-forwarded ticks still
// advance the clock and the metrics, they just cost O(1)).
func skipBenchmark(name string, n, workers int, dense, skip bool, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		Warmup:  64,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			eng, err := NewVTSkipEngine(n, workers, dense)
			if err != nil {
				return nil, err
			}
			eng.SetTickSkip(skip)
			return func(iters int) (Totals, error) {
				before := eng.Metrics().Messages
				if _, err := eng.Run(iters); err != nil {
					return Totals{}, err
				}
				return Totals{
					Msgs:   eng.Metrics().Messages - before,
					Rounds: int64(iters),
				}, nil
			}, nil
		},
	}
}

// churnByzBenchmark measures rounds/sec and msgs/sec on the churn-byz
// workload; one iteration is one round with its between-rounds churn
// and roster re-evaluation.
func churnByzBenchmark(name string, n, d, workers, perRound int, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		Warmup:  64,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			run, err := NewChurnByzEngine(n, d, workers, perRound)
			if err != nil {
				return nil, err
			}
			return func(iters int) (Totals, error) {
				before := run.Metrics().Messages
				if _, err := run.Run(iters); err != nil {
					return Totals{}, err
				}
				return Totals{
					Msgs:   run.Metrics().Messages - before,
					Rounds: int64(iters),
				}, nil
			}, nil
		},
	}
}

// churnFloodBenchmark measures rounds/sec and msgs/sec on the churn
// flood workload; one iteration is one round (with its between-rounds
// churn). Warmup brings every slot's recycled buffers to their
// high-water marks so allocs_per_op records the steady state.
func churnFloodBenchmark(name string, n, d, workers, perRound int, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		Warmup:  64,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			run, err := NewChurnFloodEngine(n, d, workers, perRound)
			if err != nil {
				return nil, err
			}
			return func(iters int) (Totals, error) {
				before := run.Metrics().Messages
				if _, err := run.Run(iters); err != nil {
					return Totals{}, err
				}
				return Totals{
					Msgs:   run.Metrics().Messages - before,
					Rounds: int64(iters),
				}, nil
			}, nil
		},
	}
}

// floodBenchmark measures engine rounds/sec and msgs/sec on the flood
// workload; one iteration is one round. Warmup puts every arena and
// scratch buffer at its high-water mark, so allocs_per_op records the
// steady state (0 for the serial engine; the parallel engine amortizes
// its constant per-Run pool startup across the calibrated rounds). A
// non-empty delaySpec runs the same flood on the virtual-time
// scheduler — the event-queue throughput lane.
func floodBenchmark(name string, n, d, workers int, delaySpec string, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		Warmup:  64,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			eng, err := NewVTFloodEngine(n, d, workers, delaySpec)
			if err != nil {
				return nil, err
			}
			return func(iters int) (Totals, error) {
				before := eng.Metrics().Messages
				if _, err := eng.Run(iters); err != nil {
					return Totals{}, err
				}
				return Totals{
					Msgs:   eng.Metrics().Messages - before,
					Rounds: int64(iters),
				}, nil
			}, nil
		},
	}
}

// graphBuildBenchmark measures a full substrate build through finalize:
// generator draws, CSR finalize, and the sorted-dedup view — everything
// engine construction consumes. One iteration is one complete build from
// a re-seeded stream, so successive iterations are identical work. With
// the flat-CSR graph core a build performs a constant number of
// allocations (gated by TestBuildAllocsConstant in internal/graph).
func graphBuildBenchmark(name string, seed uint64, build func(rng *xrand.Rand) (*graph.Graph, error), minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			rng := xrand.New(seed)
			return func(iters int) (Totals, error) {
				for i := 0; i < iters; i++ {
					rng.Reseed(seed)
					g, err := build(rng)
					if err != nil {
						return Totals{}, err
					}
					g.Adj(0)       // finalize the CSR
					g.SortedAdj(0) // and the sorted-dedup view
				}
				return Totals{}, nil
			}, nil
		},
	}
}

// graphBFSBenchmark measures structural traversal over a prebuilt
// substrate: one iteration is one full BFS into a reused distance
// buffer (the placement/diameter machinery's access pattern), from a
// rotating source.
func graphBFSBenchmark(name string, n, d int, minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    name,
		MinTime: minTime,
		Warmup:  4,
		Setup: func() (func(int) (Totals, error), error) {
			g, err := graph.HND(n, d, xrand.New(4))
			if err != nil {
				return nil, err
			}
			dist := make([]int, g.N())
			src := 0
			return func(iters int) (Totals, error) {
				for i := 0; i < iters; i++ {
					g.BFSInto(dist, src, g.N())
					src++
					if src == g.N() {
						src = 0
					}
				}
				return Totals{}, nil
			}, nil
		},
	}
}

// congestBenchmark measures a full benign CONGEST counting run
// (engine construction included); one iteration is one complete run.
func congestBenchmark(minTime time.Duration) Benchmark {
	return Benchmark{
		Name:    "protocol/congest-benign/n=256",
		MinTime: minTime,
		Setup: func() (func(int) (Totals, error), error) {
			g, err := graph.HND(256, 8, xrand.New(6))
			if err != nil {
				return nil, err
			}
			params := counting.DefaultCongestParams(8)
			maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
			return func(iters int) (Totals, error) {
				var tot Totals
				for i := 0; i < iters; i++ {
					eng := sim.New(g, sim.WithSeed(uint64(i)))
					procs := make([]sim.Proc, g.N())
					for v := range procs {
						procs[v] = counting.NewCongestProc(params)
					}
					if err := eng.Attach(procs); err != nil {
						return Totals{}, err
					}
					rounds, err := eng.Run(maxRounds)
					if err != nil {
						return Totals{}, err
					}
					tot.Msgs += eng.Metrics().Messages
					tot.Rounds += int64(rounds)
				}
				return tot, nil
			}, nil
		},
	}
}

// experimentBenchmark regenerates one experiment table per iteration,
// with the pinned seed 42 so successive iterations measure the same
// workload and ns/op is comparable across runs and commits.
func experimentBenchmark(id string, quick bool) Benchmark {
	b := Benchmark{
		Name:    "expt/" + id,
		MinTime: 2 * time.Second,
		Setup: func() (func(int) (Totals, error), error) {
			return func(iters int) (Totals, error) {
				for i := 0; i < iters; i++ {
					cfg := expt.Config{Seed: 42, Trials: 1, Quick: true, Parallel: 1}
					tbl, err := expt.Run(id, cfg)
					if err != nil {
						return Totals{}, err
					}
					if len(tbl.Rows) == 0 {
						return Totals{}, fmt.Errorf("experiment %s produced an empty table", id)
					}
				}
				return Totals{}, nil
			}, nil
		},
	}
	if quick {
		b.MaxIters = 1
	}
	return b
}

// Suite returns the standard benchmark suite: the engine flood
// micro-benchmarks (serial, pinned-8-worker, and GOMAXPROCS-worker
// parallel), the vt-flood micro-benchmarks (the virtual-time event
// queue: degenerate unit latency, uniform:1-4 jitter, and the sparse
// pulse/relay workload — serial and sharded-parallel — with its dense
// control), the vt-skip token micro-benchmarks (tick fast-forwarding
// on, off, and structurally unavailable, serial and sharded-parallel),
// the churn flood micro-benchmarks (serial and pinned-worker
// — the dynamic-membership path), the churn-byz micro-benchmarks
// (membership turnover with a maintained Byzantine fraction spamming —
// the combined path E16-E18 stand on), a full benign CONGEST protocol
// run, and the E1-E18 quick experiment regenerations.
func Suite(cfg SuiteConfig) []Benchmark {
	workers := cfg.Parallel
	if workers <= 0 {
		workers = 8
	}
	micro := time.Second
	if cfg.Quick {
		micro = 150 * time.Millisecond
	}
	benchmarks := []Benchmark{
		floodBenchmark("engine/flood/serial/n=1024", 1024, 8, 1, "", micro),
		floodBenchmark(fmt.Sprintf("engine/flood/parallel=%d/n=1024", workers), 1024, 8, workers, "", micro),
		floodBenchmark(fmt.Sprintf("engine/flood/gomaxprocs=%d/n=1024", runtime.GOMAXPROCS(0)),
			1024, 8, runtime.GOMAXPROCS(0), "", micro),
		floodBenchmark("engine/vt-flood/unit/serial/n=1024", 1024, 8, 1, "unit", micro),
		floodBenchmark("engine/vt-flood/jitter/serial/n=1024", 1024, 8, 1, "uniform:1-4", micro),
		floodBenchmark(fmt.Sprintf("engine/vt-flood/jitter/parallel=%d/n=1024", workers),
			1024, 8, workers, "uniform:1-4", micro),
		sparseBenchmark("engine/vt-flood/sparse/serial/n=1024", 1024, 8, 1, false, micro),
		sparseBenchmark(fmt.Sprintf("engine/vt-flood/sparse/parallel=%d/n=1024", workers),
			1024, 8, workers, false, micro),
		sparseBenchmark("engine/vt-flood/sparse/full/serial/n=1024", 1024, 8, 1, true, micro),
		skipBenchmark("engine/vt-skip/token/serial/n=1024", 1024, 1, false, true, micro),
		skipBenchmark(fmt.Sprintf("engine/vt-skip/token/parallel=%d/n=1024", workers),
			1024, workers, false, true, micro),
		skipBenchmark("engine/vt-skip/token/noskip/serial/n=1024", 1024, 1, false, false, micro),
		skipBenchmark(fmt.Sprintf("engine/vt-skip/token/noskip/parallel=%d/n=1024", workers),
			1024, workers, false, false, micro),
		skipBenchmark("engine/vt-skip/token/full/serial/n=1024", 1024, 1, true, true, micro),
		churnFloodBenchmark("engine/churn-flood/serial/n=1024", 1024, 8, 1, 2, micro),
		churnFloodBenchmark(fmt.Sprintf("engine/churn-flood/parallel=%d/n=1024", workers),
			1024, 8, workers, 2, micro),
		churnByzBenchmark("engine/churn-byz/serial/n=1024", 1024, 8, 1, 2, micro),
		churnByzBenchmark(fmt.Sprintf("engine/churn-byz/parallel=%d/n=1024", workers),
			1024, 8, workers, 2, micro),
		graphBuildBenchmark("graph/build-hnd/n=4096", 4, func(rng *xrand.Rand) (*graph.Graph, error) {
			return graph.HND(4096, 8, rng)
		}, micro),
		graphBuildBenchmark("graph/build-ws/n=4096", 4, func(rng *xrand.Rand) (*graph.Graph, error) {
			return graph.WattsStrogatz(4096, 4, 0.2, rng)
		}, micro),
		graphBuildBenchmark("graph/build-regular/n=1024", 4, func(rng *xrand.Rand) (*graph.Graph, error) {
			return graph.SimpleRegular(1024, 8, 100, rng)
		}, micro),
		graphBFSBenchmark("graph/bfs/n=4096", 4096, 8, micro),
		congestBenchmark(micro),
	}
	for _, id := range expt.IDs() {
		benchmarks = append(benchmarks, experimentBenchmark(id, cfg.Quick))
	}
	if cfg.Filter == "" {
		return benchmarks
	}
	kept := benchmarks[:0]
	for _, b := range benchmarks {
		if containsFold(b.Name, cfg.Filter) {
			kept = append(kept, b)
		}
	}
	return kept
}

// containsFold is a case-insensitive substring test.
func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}
