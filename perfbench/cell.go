package main

// The recomposed cell pipeline. A traced sweep cell is rebuilt from the
// public calls expt.RunScenario makes, with the same split labels
// ("graph", "place", "when", "spam", "run"; "net", "roster", "eng" on a
// churning substrate), so its outputs equal RunScenario's bit for bit
// while the benchmark times each layer boundary from outside: substrate
// build, placement, engine construction, the run and its rounds, and
// the outcome read-out. Only the axis values the benchmark's workloads
// use are covered; any other value is an error, never a guess.

import (
	"fmt"
	"math"
	"time"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

// The matrix cell vector, in the order expt's matrix table and the
// sweep log use: byz, rounds, decided_frac, bounded_frac, median_est,
// msgs.
const (
	valByz = iota
	valRounds
	valDecided
	valBounded
	valMedian
	valMsgs
	numVals
)

// stepKind classifies a timed process for the per-layer step counters.
type stepKind uint8

const (
	kindCongest  stepKind = iota // counting.CongestProc
	kindBaseline                 // geometric, KMV and support baselines
	kindByz                      // every Byzantine process, crash wrappers included
	numKinds
)

// timedProc forwards Step, Halted and Outcome to the process it wraps
// and accumulates the wall time spent inside Step. Each vertex is
// stepped by one goroutine per round, so the counters need no
// synchronization; they are read after Run returns.
type timedProc struct {
	inner sim.Proc
	est   counting.Estimator // nil when inner is not an Estimator
	kind  stepKind
	ns    int64
	calls int64
}

// wrapProc returns p wrapped in a timedProc, or p itself and false when
// p carries a marker the engine dispatches on (sim.Sequential,
// sim.TickDriven): a forwarding wrapper would hide the marker and
// change how the engine schedules the process.
func wrapProc(p sim.Proc, kind stepKind) (sim.Proc, bool) {
	if _, ok := p.(sim.Sequential); ok {
		return p, false
	}
	if _, ok := p.(sim.TickDriven); ok {
		return p, false
	}
	tp := &timedProc{inner: p, kind: kind}
	tp.est, _ = p.(counting.Estimator)
	return tp, true
}

func (p *timedProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	t0 := time.Now()
	out := p.inner.Step(env, round, in)
	p.ns += int64(time.Since(t0))
	p.calls++
	return out
}

func (p *timedProc) Halted() bool { return p.inner.Halted() }

// Outcome forwards to the wrapped Estimator. A non-Estimator yields the
// zero Outcome, which is exactly what counting.Outcomes reports for it.
func (p *timedProc) Outcome() counting.Outcome {
	if p.est == nil {
		return counting.Outcome{}
	}
	return p.est.Outcome()
}

// cellStats is what one recomposed cell reports besides its spans.
type cellStats struct {
	key        string // the cell id, "label#trial"
	sc         expt.Scenario
	vals       [numVals]float64
	metrics    sim.Metrics
	alive      int         // nodes alive at the end
	hist       map[int]int // decided honest estimates
	tickDriven bool        // the engine holds a TickDriven process
	unwrapped  int         // processes left untimed (marker carriers)
	stepNs     [numKinds]int64
	steps      [numKinds]int64
	rounds     int   // what Engine.Run returned (an all-halted round is not counted)
	runNs      int64 // Engine.Run wall time
	setupNs    int64 // everything before Engine.Run
	workers    int
}

// cellRun holds the per-cell state the proc factories and the stop
// hook share.
type cellRun struct {
	sc      expt.Scenario
	rng     *xrand.Rand
	ct      *cellTrace
	congest counting.CongestParams
	when    *xrand.Rand
	timed   []*timedProc
	st      cellStats
	// traced wraps processes in timedProc and records round spans;
	// untraced runs keep only the few per-stage spans.
	traced bool
}

// byzBudget mirrors Scenario's budget rule: ByzFrac wins over Byz.
func byzBudget(sc expt.Scenario) (count int, target float64) {
	if sc.ByzFrac > 0 {
		return int(math.Round(sc.ByzFrac * float64(sc.N))), sc.ByzFrac
	}
	if sc.Byz > 0 {
		return sc.Byz, float64(sc.Byz) / float64(sc.N)
	}
	return 0, 0
}

// checkCovered rejects any scenario the recomposition does not model;
// Validate rejects the axis combinations that do not compose.
func checkCovered(sc expt.Scenario) error {
	switch {
	case sc.Proto != "congest" && sc.Proto != "geometric" && sc.Proto != "kmv" && sc.Proto != "support":
		return fmt.Errorf("perfbench: recomposition does not cover protocol %q", sc.Proto)
	case sc.Adversary != "none" && sc.Adversary != "spam" && sc.Adversary != "silent" && sc.Adversary != "crash":
		return fmt.Errorf("perfbench: recomposition does not cover adversary %q", sc.Adversary)
	case sc.Substrate != "hnd" && sc.Substrate != "lattice":
		return fmt.Errorf("perfbench: recomposition does not cover substrate %q", sc.Substrate)
	case sc.StopFrac != 0 || sc.ByzJoiners != 0:
		return fmt.Errorf("perfbench: recomposition does not cover StopFrac or ByzJoiners")
	case sc.N == 0 || sc.D == 0 || sc.Placement == "":
		return fmt.Errorf("perfbench: scenario %q has unfilled axes", sc.Label())
	}
	return sc.Validate()
}

// runCell executes one scenario cell through the recomposed pipeline,
// recording its stage spans into ct (and, when traced, its round spans
// and per-process Step time). rng is the cell's root stream, exactly as
// RunScenario receives it.
func runCell(sc expt.Scenario, rng *xrand.Rand, workers int, ct *cellTrace, traced bool) (*cellStats, error) {
	if err := checkCovered(sc); err != nil {
		return nil, err
	}
	c := &cellRun{sc: sc, rng: rng, ct: ct, traced: traced}
	c.st.workers = max(workers, 1)
	c.st.key, c.st.sc = ct.cell, sc
	if sc.Proto == "congest" {
		c.congest = counting.DefaultCongestParams(sc.D)
		if sc.MaxPhase > 0 {
			c.congest.MaxPhase = sc.MaxPhase
		}
	}
	var err error
	switch {
	case sc.Churn.Active() || sc.Dynamic:
		err = c.runChurn()
	case sc.Substrate == "lattice":
		err = c.runImplicit()
	default:
		err = c.runStatic()
	}
	if err != nil {
		return nil, err
	}
	for _, tp := range c.timed {
		c.st.stepNs[tp.kind] += tp.ns
		c.st.steps[tp.kind] += tp.calls
	}
	return &c.st, nil
}

func (c *cellRun) maxRounds() int {
	if c.sc.MaxRounds > 0 {
		return c.sc.MaxRounds
	}
	if c.sc.Proto == "congest" {
		return c.congest.Schedule.RoundsThroughPhase(c.congest.MaxPhase + 1)
	}
	return 50 * c.sc.N // the geometric, kmv and support budget
}

// honestProc builds the protocol's process, as expt.Protocols does.
func (c *cellRun) honestProc() sim.Proc {
	switch c.sc.Proto {
	case "congest":
		return counting.NewCongestProc(c.congest)
	case "geometric":
		return counting.NewGeometricProc(16)
	case "kmv":
		return counting.NewKMVProc(32, 16)
	default:
		return counting.NewSupportProc(32, 16)
	}
}

// byzProc builds the adversary's process for vertex/slot v, as
// expt.Adversaries does.
func (c *cellRun) byzProc(v int) sim.Proc {
	switch c.sc.Adversary {
	case "spam":
		return byzantine.NewBeaconSpammer(c.congest.Schedule, 6, false, c.rng.SplitN("spam", v))
	case "silent":
		return byzantine.Silent{}
	default: // crash
		return byzantine.NewCrash(c.honestProc(), 20+c.when.SplitN("c", v).Intn(200))
	}
}

// proc builds and wraps the process for v.
func (c *cellRun) proc(v int, isByz bool) sim.Proc {
	var p sim.Proc
	kind := kindByz
	if isByz {
		p = c.byzProc(v)
	} else {
		p = c.honestProc()
		kind = kindBaseline
		if c.sc.Proto == "congest" {
			kind = kindCongest
		}
	}
	if !c.traced {
		return p
	}
	w, ok := wrapProc(p, kind)
	if !ok {
		c.st.unwrapped++
		return p
	}
	c.timed = append(c.timed, w.(*timedProc))
	return w
}

// place draws the initial Byzantine mask over sub.
func (c *cellRun) place(sub byzantine.Substrate) ([]bool, error) {
	count, _ := byzBudget(c.sc)
	if count == 0 {
		return make([]bool, sub.Slots()), nil
	}
	placements := map[string]byzantine.Placement{
		"random": byzantine.RandomPlacement, "clustered": byzantine.ClusteredPlacement,
		"spread": byzantine.SpreadPlacement,
	}
	pl, ok := placements[c.sc.Placement]
	if !ok {
		return nil, fmt.Errorf("perfbench: recomposition does not cover placement %q", c.sc.Placement)
	}
	return pl(sub, count, c.rng.Split("place"))
}

// prepare runs the adversary's shared set-up (the crash-round stream).
func (c *cellRun) prepare() {
	if c.sc.Adversary == "crash" {
		c.when = c.rng.Split("when")
	}
}

// models applies the scenario's delivery axes to eng.
func (c *cellRun) models(eng *sim.Engine) error {
	delay, err := sim.ParseDelayModel(c.sc.Delay)
	if err != nil {
		return err
	}
	fault, err := sim.ParseFaultModel(c.sc.Fault)
	if err != nil {
		return err
	}
	if delay != nil {
		eng.SetDelayModel(delay)
	}
	if fault != nil {
		eng.SetFaultModel(fault)
	}
	return nil
}

// run executes eng with a stop hook that only timestamps round ends,
// recording one round span per round under a sim.run span.
func (c *cellRun) run(eng *sim.Engine, runFn func(int) (int, error)) error {
	ends := make([]int64, 0, 256)
	if c.traced {
		eng.SetStopCondition(func(int) bool {
			ends = append(ends, c.ct.t.now())
			return false
		})
	}
	sp := c.ct.begin("sim.run")
	start := c.ct.spans[sp].Start
	rounds, err := runFn(c.maxRounds())
	c.ct.end(sp)
	c.st.rounds = rounds
	eng.SetStopCondition(nil)
	if err != nil {
		return err
	}
	stop := c.ct.spans[sp].End
	c.st.runNs = stop - start
	lo := start
	for _, hi := range ends {
		c.ct.add(sp, "round", lo, hi)
		lo = hi
	}
	if c.traced && lo < stop && len(ends) < eng.Metrics().Rounds {
		c.ct.add(sp, "round", lo, stop) // the final round: every process halted
	}
	c.st.tickDriven = eng.HasTickDriven()
	c.st.metrics = eng.Metrics()
	return nil
}

// distill reads the outcomes out of procs and computes the cell vector.
func (c *cellRun) distill(procs []sim.Proc, honest []bool) {
	sp := c.ct.begin("counting.outcomes")
	defer c.ct.end(sp)
	c.st.vals, c.st.hist = cellVector(c.sc, counting.Outcomes(procs), honest, c.st.rounds, c.st.metrics.Messages)
	c.st.alive = len(procs)
}

// attachAll builds every slot's process and attaches them.
func (c *cellRun) attachAll(eng *sim.Engine, byz []bool) ([]sim.Proc, []bool, error) {
	if err := c.models(eng); err != nil {
		return nil, nil, err
	}
	eng.SetParallelism(c.st.workers)
	procs := make([]sim.Proc, len(byz))
	honest := make([]bool, len(byz))
	for v := range procs {
		procs[v] = c.proc(v, byz[v])
		honest[v] = !byz[v]
	}
	if err := eng.Attach(procs); err != nil {
		return nil, nil, err
	}
	return procs, honest, nil
}

// runStatic mirrors RunScenario's static path: "graph", "place",
// adversary set-up, then the engine seeded from "run".
func (c *cellRun) runStatic() error {
	setup := c.ct.t.now()
	sp := c.ct.begin("graph.build")
	g, err := graph.HND(c.sc.N, c.sc.D, c.rng.Split("graph"))
	c.ct.end(sp)
	if err != nil {
		return fmt.Errorf("perfbench: building hnd(n=%d,d=%d): %w", c.sc.N, c.sc.D, err)
	}
	sp = c.ct.begin("byzantine.place")
	byz, err := c.place(g)
	c.prepare()
	c.ct.end(sp)
	if err != nil {
		return err
	}
	sp = c.ct.begin("sim.construct")
	eng := sim.New(g, sim.WithSeed(c.rng.Split("run").Uint64()))
	procs, honest, err := c.attachAll(eng, byz)
	c.ct.end(sp)
	if err != nil {
		return err
	}
	c.st.setupNs = c.ct.t.now() - setup
	if err := c.run(eng, eng.Run); err != nil {
		return err
	}
	c.distill(procs, honest)
	return nil
}

// runImplicit mirrors RunScenario's implicit path: the "graph" stream is
// split but never drawn from, and the topology is built on demand.
func (c *cellRun) runImplicit() error {
	setup := c.ct.t.now()
	_ = c.rng.Split("graph")
	sp := c.ct.begin("sim.construct")
	topo, err := graph.NewRingLattice(c.sc.N, max(c.sc.D/2, 1))
	if err != nil {
		c.ct.end(sp)
		return err
	}
	byz, err := c.place(topo)
	if err != nil {
		c.ct.end(sp)
		return err
	}
	c.prepare()
	eng := sim.New(topo, sim.WithSeed(c.rng.Split("run").Uint64()))
	procs, honest, err := c.attachAll(eng, byz)
	c.ct.end(sp)
	if err != nil {
		return err
	}
	c.st.setupNs = c.ct.t.now() - setup
	if err := c.run(eng, eng.Run); err != nil {
		return err
	}
	c.distill(procs, honest)
	return nil
}

// runChurn mirrors RunScenario's churn path: "net", "place", "roster",
// adversary set-up, then the runner seeded from "eng".
func (c *cellRun) runChurn() error {
	setup := c.ct.t.now()
	sp := c.ct.begin("dynamic.network")
	net, err := dynamic.NewNetwork(c.sc.N, c.sc.D, c.rng.Split("net"))
	c.ct.end(sp)
	if err != nil {
		return err
	}
	sp = c.ct.begin("byzantine.place")
	mask, err := c.place(net)
	var roster *byzantine.Roster
	if err == nil {
		_, target := byzBudget(c.sc)
		roster, err = byzantine.NewRoster(mask, net.NumAlive(), target, c.rng.Split("roster"))
	}
	c.prepare()
	c.ct.end(sp)
	if err != nil {
		return err
	}
	sp = c.ct.begin("sim.construct")
	initial := true
	factory := func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
		isByz := roster.IsByz(slot)
		if !initial {
			isByz = roster.OnJoin(slot)
		}
		return c.proc(slot, isByz)
	}
	run, err := dynamic.NewRunner(net,
		dynamic.Churn{Leaves: c.sc.Churn.Leaves, Joins: c.sc.Churn.Joins,
			StopAfter: c.sc.Churn.StopAfter, Mixed: c.sc.Churn.Mixed},
		c.rng.Split("eng").Uint64(), factory)
	if err == nil {
		initial = false
		run.SetLeaveHook(roster.OnLeave)
		run.SetParallelism(c.st.workers)
		err = c.models(run.Engine())
	}
	c.ct.end(sp)
	if err != nil {
		return err
	}
	c.st.setupNs = c.ct.t.now() - setup
	if err := c.run(run.Engine(), run.Run); err != nil {
		return err
	}
	if err := net.Validate(); err != nil {
		return fmt.Errorf("perfbench: topology invariant broken after run: %w", err)
	}
	procs, slots := run.AliveProcs()
	honest := make([]bool, len(procs))
	for i, s := range slots {
		honest[i] = !roster.IsByz(s)
	}
	c.distill(procs, honest)
	return nil
}

// cellVector computes the matrix cell vector as expt's matrix cell
// does, plus the histogram of decided honest estimates.
func cellVector(sc expt.Scenario, outcomes []counting.Outcome, honest []bool, rounds int, msgs int64) ([numVals]float64, map[int]int) {
	var v [numVals]float64
	v[valRounds] = float64(rounds)
	v[valMsgs] = float64(msgs)
	logd := counting.LogD(sc.N, sc.D)
	hist := map[int]int{}
	honestTotal, dec, bnd := 0, 0, 0
	for i, o := range outcomes {
		if !honest[i] {
			v[valByz]++
			continue
		}
		honestTotal++
		if !o.Decided {
			continue
		}
		dec++
		hist[o.Estimate]++
		if float64(o.Estimate) >= 0.5*logd && float64(o.Estimate) <= 2*logd+2 {
			bnd++
		}
	}
	if honestTotal > 0 {
		v[valDecided] = float64(dec) / float64(honestTotal)
		v[valBounded] = float64(bnd) / float64(honestTotal)
	}
	v[valMedian] = stats.Median(stats.Ints(counting.DecidedEstimates(outcomes, honest)))
	return v, hist
}
