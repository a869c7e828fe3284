package expt

import (
	"fmt"
	"math"

	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// mkProc builds the process for one vertex; the engine is available for
// adversaries that need global knowledge (the omniscient-adversary model).
type mkProc func(v int, eng *sim.Engine) sim.Proc

// runProtocol wires processes onto a graph and runs serially. If
// stopWhenDecided is true the run ends as soon as every honest Estimator
// has decided (the decision-time metric of Definition 2); otherwise it
// runs until all processes halt or maxRounds passes. byz may be nil (no
// Byzantine nodes; byzProc is then never called).
func runProtocol(g *graph.Graph, byz []bool, seed uint64, honestProc, byzProc mkProc,
	maxRounds int, stopWhenDecided bool) (*ScenarioOutcome, error) {
	frac := 0.0
	if stopWhenDecided {
		frac = 1.0
	}
	return runProtocolOnEngine(sim.New(g, sim.WithSeed(seed)), byz, honestProc, byzProc, maxRounds, frac, engineOpts{})
}

// engineOpts is the execution-shape bundle RunScenario threads to the
// engine: the Step-shard worker count plus the virtual-time delivery
// models (nil delay and fault keep the synchronous round loop, and with
// it byte-for-byte compatibility with every pre-virtual-time table).
type engineOpts struct {
	workers int // 0 or 1 = serial
	delay   sim.DelayModel
	fault   sim.FaultModel
	// done, when non-nil, cancels the run cooperatively: the engine polls
	// it each round and aborts with sim.ErrCanceled when it closes. The
	// durable sweep driver uses it for per-cell timeouts and SIGTERM
	// drains.
	done <-chan struct{}
}

// runProtocolOnEngine is the substrate-independent protocol run body
// shared by runProtocol and the static scenario path (both sim.New
// dispatch paths assign IDs from the same seed-derived stream in slot
// order, so over identical adjacency they produce byte-identical runs).
// Processes are built in ascending vertex order after every ID is
// assigned. The run ends once at least stopFrac of the honest nodes have
// decided (Theorem 2 only promises (1-beta)n deciders — Byzantine-adjacent
// stragglers may never decide on their own); stopFrac <= 0 runs to halt.
// The outcome carries no substrate; the caller sets Graph or Topology.
func runProtocolOnEngine(eng *sim.Engine, byz []bool, honestProc, byzProc mkProc,
	maxRounds int, stopFrac float64, eo engineOpts) (*ScenarioOutcome, error) {
	if eo.delay != nil {
		eng.SetDelayModel(eo.delay)
	}
	if eo.fault != nil {
		eng.SetFaultModel(eo.fault)
	}
	if eo.done != nil {
		eng.SetCancel(eo.done)
	}
	eng.SetParallelism(max(eo.workers, 1))
	n := eng.Slots()
	procs := make([]sim.Proc, n)
	for v := range procs {
		if byz != nil && byz[v] {
			procs[v] = byzProc(v, eng)
		} else {
			procs[v] = honestProc(v, eng)
		}
	}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	honest := make([]bool, n)
	for v := range honest {
		honest[v] = byz == nil || !byz[v]
	}
	if stopFrac > 0 {
		honestTotal := 0
		for _, h := range honest {
			if h {
				honestTotal++
			}
		}
		eng.SetStopCondition(func(round int) bool {
			decided := 0
			for v, p := range procs {
				if !honest[v] {
					continue
				}
				if e, ok := p.(counting.Estimator); ok && e.Outcome().Decided {
					decided++
				}
			}
			return honestTotal == 0 || float64(decided) >= stopFrac*float64(honestTotal)
		})
	}
	rounds, err := eng.Run(maxRounds)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{
		Outcomes: counting.Outcomes(procs),
		Honest:   honest,
		Procs:    procs,
		Rounds:   rounds,
		Metrics:  eng.Metrics(),
		Byz:      byz,
		Engine:   eng,
	}, nil
}

// byzCount returns the paper's Byzantine budget floor(n^exponent).
func byzCount(n int, exponent float64) int {
	b := int(math.Floor(math.Pow(float64(n), exponent)))
	if b < 0 {
		b = 0
	}
	if b >= n {
		b = n - 1
	}
	return b
}

// meanEstimate returns the mean decided estimate among honest vertices.
func meanEstimate(o *ScenarioOutcome) float64 {
	vals := counting.DecidedEstimates(o.Outcomes, o.Honest)
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += float64(v)
	}
	return sum / float64(len(vals))
}

// congestMaxRounds bounds a CONGEST run safely past the MaxPhase wall.
func congestMaxRounds(p counting.CongestParams) int {
	return p.Schedule.RoundsThroughPhase(p.MaxPhase + 1)
}

// hnd builds the H(n,d) substrate or fails the experiment. Builds go
// through the deterministic substrate cache: rng must be a stream
// dedicated to this build (every caller passes a fresh split), so its
// seed identifies the draw and identical streams reuse one graph.
func hnd(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
	g, err := cachedSubstrate("hnd", n, d, rng.Seed(), false,
		func() (*graph.Graph, error) { return graph.HND(n, d, rng) })
	if err != nil {
		return nil, fmt.Errorf("expt: building H(%d,%d): %w", n, d, err)
	}
	return g, nil
}

// nSweep returns the network-size sweep for the config.
func nSweep(cfg Config, full []int, quick []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}
