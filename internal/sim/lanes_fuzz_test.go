package sim

// FuzzLanes checks every engine lane against refEngine, a naive
// reference that steps vertices in ascending order and appends each
// admitted message straight into a per-tick inbox. The reference shares
// nothing with the engine's round code: no worker pool, no outbox
// buckets, no occupancy overlay, no devirtualized model dispatch and no
// tick skipping. Each fuzz input (a seed and a shape byte) picks a small
// H(n,d), scripted processes, a delay spec, a fault spec and an edge
// capacity; the engine must then reproduce the reference's transcript
// digest, metrics (minus TicksSkipped) and Run results at 1, 3 and 8
// workers, with tick skipping on and off, in one Run and in two.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/xrand"
)

// laneRounds is the round budget of one fuzz run.
const laneRounds = 24

var (
	laneDelaySpecs = []string{"", "unit", "uniform:1-3", "geo:0.5@4", "region:2/1/3", "gst:6/uniform:1-4", "custom"}
	laneFaultSpecs = []string{"", "drop:0.2", "partition:2@3-9", "custom"}
)

// laneDelay is a model the engine cannot devirtualize, so it covers the
// interface arm. It draws, and it returns latencies outside
// [1, MaxDelay] so the clamp and Metrics.DelayClamped are exercised.
type laneDelay struct{}

func (laneDelay) Name() string  { return "lane" }
func (laneDelay) MaxDelay() int { return 3 }
func (laneDelay) Draws() bool   { return true }
func (laneDelay) Delay(rng *xrand.Rand, round, from, to int) int {
	return rng.Intn(6) - 1 + (round+from+to)%2 // in [-1, 5]
}

// laneFault is the fault-side interface arm: a drawn loss plus a
// deterministic cut that depends on the tick.
type laneFault struct{}

func (laneFault) Name() string { return "lane" }
func (laneFault) Draws() bool  { return true }
func (laneFault) Drop(rng *xrand.Rand, round, from, to int) bool {
	return rng.Intn(5) == 0 || (round+from)%7 == to%7
}

// laneCase is one decoded fuzz input.
type laneCase struct {
	g       *graph.Graph
	seed    uint64
	delay   DelayModel
	fault   FaultModel
	capBits int
	td      bool // mix TickDriven relays into the population
	split   int  // first Run's length in the two-Run shape
}

func decodeLaneCase(t *testing.T, seed uint64, shape byte) laneCase {
	t.Helper()
	n := 6 + int(seed%27)
	d := 2 + 2*int((seed>>8)%3)
	g, err := graph.HND(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	c := laneCase{g: g, seed: seed, split: 1 + int((seed>>16)%(laneRounds-1))}
	switch spec := laneDelaySpecs[int(shape)%7]; spec {
	case "custom":
		c.delay = laneDelay{}
	default:
		if c.delay, err = ParseDelayModel(spec); err != nil {
			t.Fatal(err)
		}
	}
	switch spec := laneFaultSpecs[int(shape)/7%4]; spec {
	case "custom":
		c.fault = laneFault{}
	default:
		if c.fault, err = ParseFaultModel(spec); err != nil {
			t.Fatal(err)
		}
	}
	if shape/28%2 == 1 {
		c.capBits = 40 // below two maximum-size payloads, so some edges cap
	}
	c.td = shape/56%2 == 1
	return c
}

// lanePayload carries a value derived from its sender's transcript, so
// a delivery-order difference anywhere propagates into later traffic.
type lanePayload struct {
	bits int
	val  uint64
}

func (p lanePayload) SizeBits() int { return p.bits }

// laneProc is a scripted process. Every choice draws from its Env
// stream: which neighbors it sends to, payload sizes, an occasional
// message to a non-neighbor or out-of-range vertex, an occasional nil
// payload, and when it halts. sum folds in every delivered message.
type laneProc struct {
	n      int
	sum    uint64
	halted bool
}

func (p *laneProc) Halted() bool { return p.halted }

func (p *laneProc) Step(env *Env, round int, in []Incoming) []Outgoing {
	fold := func(x uint64) { p.sum = (p.sum ^ x) * 0x100000001b3 }
	fold(uint64(round))
	for _, m := range in {
		fold(uint64(m.From))
		fold(uint64(m.FromID))
		if pl, ok := m.Payload.(lanePayload); ok {
			fold(uint64(pl.bits))
			fold(pl.val)
		} else {
			fold(^uint64(0))
		}
	}
	rng := env.Rand()
	if rng.Intn(5) == 0 {
		p.halted = true
	}
	out := env.Scratch()
	for k, w := range env.Neighbors {
		if rng.Intn(3) != 0 {
			continue
		}
		var pl Payload = lanePayload{bits: rng.Intn(33), val: p.sum + uint64(k)}
		if rng.Intn(10) == 0 {
			pl = nil
		}
		out = append(out, Outgoing{To: w, Payload: pl})
	}
	if rng.Intn(6) == 0 {
		out = append(out, Outgoing{To: rng.Intn(p.n+2) - 1, Payload: lanePayload{bits: 1}})
	}
	return out
}

// laneRelay is the TickDriven variant: an empty inbox is a no-op (no
// send, no state change, no stream draw), and it halts only in its own
// Step.
type laneRelay struct{ laneProc }

func (*laneRelay) StepsOnMessagesOnly() {}

func (p *laneRelay) Step(env *Env, round int, in []Incoming) []Outgoing {
	if len(in) == 0 {
		return nil
	}
	return p.laneProc.Step(env, round, in)
}

// procs builds a fresh population: every vertex round-driven, or with
// TickDriven relays at every vertex not divisible by 4.
func (c laneCase) procs() ([]Proc, []*laneProc) {
	n := c.g.N()
	procs := make([]Proc, n)
	states := make([]*laneProc, n)
	for v := range procs {
		if c.td && v%4 != 0 {
			r := &laneRelay{laneProc{n: n}}
			procs[v], states[v] = r, &r.laneProc
		} else {
			p := &laneProc{n: n}
			procs[v], states[v] = p, p
		}
	}
	return procs, states
}

// runs is the Run call pattern: one Run of laneRounds, or two whose
// lengths add up to it.
func (c laneCase) runs(split bool) []int {
	if split {
		return []int{c.split, laneRounds - c.split}
	}
	return []int{laneRounds}
}

func laneDigest(states []*laneProc) string {
	var h uint64
	for _, p := range states {
		h = (h ^ p.sum) * 0x100000001b3
	}
	return fmt.Sprintf("%016x", h)
}

// refEngine is the reference: the model's round semantics and nothing
// else. IDs, neighbor lists and Env streams come from an Engine built
// with the same graph and seed that is never Run.
type refEngine struct {
	e          *Engine
	procs      []Proc
	capBits    int
	delay      DelayModel
	fault      FaultModel
	window     int
	inbox      [][][]Incoming // inbox[tick%window][v]
	dRng, fRng []*xrand.Rand
	m          Metrics
}

func newRefEngine(c laneCase, procs []Proc) *refEngine {
	n := c.g.N()
	r := &refEngine{
		e:       New(c.g, WithSeed(c.seed)),
		procs:   procs,
		capBits: c.capBits,
		delay:   c.delay,
		fault:   c.fault,
		window:  2,
		dRng:    make([]*xrand.Rand, n),
		fRng:    make([]*xrand.Rand, n),
	}
	if c.delay != nil && c.delay.MaxDelay() >= 1 {
		r.window = c.delay.MaxDelay() + 1
	}
	r.inbox = make([][][]Incoming, r.window)
	for s := range r.inbox {
		r.inbox[s] = make([][]Incoming, n)
	}
	r.m.PerNodeMaxBit = make([]int, n)
	return r
}

// stream returns sender v's stream under label, derived as the engine
// derives it, or nil for a model that does not draw.
func (r *refEngine) stream(tab []*xrand.Rand, label string, v int, draws bool) *xrand.Rand {
	if !draws {
		return nil
	}
	if tab[v] == nil {
		tab[v] = r.e.root.SplitN(label, v)
	}
	return tab[v]
}

// run mirrors Engine.Run: round is Run's local index, the tick is the
// total executed so far, and a round in which every process had halted
// ends the run.
func (r *refEngine) run(maxRounds int) int {
	for round := 0; round < maxRounds; round++ {
		tick := r.m.Rounds
		box := r.inbox[tick%r.window]
		allHalted := true
		var sent int64
		for v, p := range r.procs {
			in := box[v]
			box[v] = nil
			if p.Halted() {
				continue
			}
			allHalted = false
			env := r.e.Env(v)
			used := map[int]int{}
			for _, msg := range p.Step(env, round, in) {
				to := msg.To
				if !slices.Contains(env.Neighbors, to) {
					r.m.Violations++
					continue
				}
				bits := 0
				if msg.Payload != nil {
					bits = msg.Payload.SizeBits()
				}
				if r.capBits > 0 {
					if used[to]+bits > r.capBits {
						r.m.Capped++
						continue
					}
					used[to] += bits
				}
				if r.fault != nil && r.fault.Drop(r.stream(r.fRng, "fault", v, r.fault.Draws()), tick, v, to) {
					r.m.Dropped++
					continue
				}
				d := 1
				if r.delay != nil {
					d = r.delay.Delay(r.stream(r.dRng, "delay", v, r.delay.Draws()), tick, v, to)
					if d < 1 || d > r.window-1 {
						d = min(max(d, 1), r.window-1)
						r.m.DelayClamped++
					}
				}
				sent++
				r.m.Bits += int64(bits)
				r.m.MaxMsgBits = max(r.m.MaxMsgBits, bits)
				r.m.PerNodeMaxBit[v] = max(r.m.PerNodeMaxBit[v], bits)
				slot := r.inbox[(tick+d)%r.window]
				slot[to] = append(slot[to], Incoming{From: v, FromID: r.e.ID(v), Payload: msg.Payload})
			}
		}
		r.m.Messages += sent
		r.m.Rounds++
		r.m.MessagesByRound = append(r.m.MessagesByRound, sent)
		if allHalted {
			return round
		}
	}
	return maxRounds
}

// laneOutcome is what one execution is compared on.
type laneOutcome struct {
	digest  string
	metrics Metrics
	rounds  []int
}

func (c laneCase) reference(split bool) laneOutcome {
	procs, states := c.procs()
	ref := newRefEngine(c, procs)
	var rounds []int
	for _, k := range c.runs(split) {
		rounds = append(rounds, ref.run(k))
	}
	return laneOutcome{laneDigest(states), ref.m, rounds}
}

func (c laneCase) engine(t *testing.T, workers int, skip, split bool) laneOutcome {
	t.Helper()
	eng := New(c.g, WithSeed(c.seed), WithParallelism(workers), WithEdgeCapacity(c.capBits),
		WithDelayModel(c.delay), WithFaultModel(c.fault))
	eng.SetTickSkip(skip)
	procs, states := c.procs()
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	var rounds []int
	for _, k := range c.runs(split) {
		r, err := eng.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r)
	}
	m := eng.Metrics()
	m.TicksSkipped = 0
	return laneOutcome{laneDigest(states), m, rounds}
}

func FuzzLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shape byte) {
		c := decodeLaneCase(t, seed, shape)
		for _, split := range []bool{false, true} {
			want := c.reference(split)
			for _, workers := range []int{1, 3, 8} {
				for _, skip := range []bool{true, false} {
					got := c.engine(t, workers, skip, split)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d delay=%v fault=%v cap=%d td=%v workers=%d skip=%v runs=%v:\nengine:    %+v\nreference: %+v",
							c.g.N(), c.delay, c.fault, c.capBits, c.td, workers, skip, c.runs(split), got, want)
					}
				}
			}
		}
	})
}
