package main

// The four workloads. Each has an untraced pass (what one measured run
// repeats) and a traced pass (what --trace 1 runs once, beside an
// untraced pass for the overhead ratio). README.md records why each
// workload exists and what it bypasses.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"byzcount/internal/expt"
	"byzcount/internal/sweep"
	"byzcount/internal/xrand"
)

// env is what every pass receives from the command line.
type env struct {
	seed    uint64
	workers int    // nproc: concurrent cells, or engine workers for scale-lattice
	work    string // scratch directory inside the checkout
}

// pass is the outcome of one untraced pass of a workload.
type pass struct {
	wall, setup float64 // seconds
	cpu         float64 // process CPU seconds (user + system)
	steal       float64 // share of the machine's CPU time stolen by the hypervisor
	cells       int     // cells run (E-tables for expt-quick)
	msgs        float64 // messages delivered (0 where not observable)
	rssMB       float64
	rt          rtDelta
	subHits     int64
	subMisses   int64
	// outputs maps each cell or table to its canonical bytes; runs of
	// one invocation must agree on every entry.
	outputs map[string]string
	// failed holds the cells or tables that failed a check, by key.
	failed   map[string]bool
	problems []string
	// reported holds failures of claims the gate reports but does not
	// count (see reportedOnly).
	reported []string
	// vals holds each sweep cell's vector ("label#trial" -> vector).
	vals     map[string][numVals]float64
	walBytes int64
	// lattice is scale-lattice's cell, for the traced comparison.
	lattice *cellStats
}

// fail records that the cell or table key failed a check.
func (p *pass) fail(key, format string, args ...any) {
	if p.failed == nil {
		p.failed = map[string]bool{}
	}
	p.failed[key] = true
	p.problems = append(p.problems, key+": "+fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(e env) (*pass, error)
	traced    func(e env, tr *tracer, lm layerMetrics) (*pass, error)
}

var workloads = []workload{
	{name: "expt-quick", why: "every E1-E20 table at Quick scale through expt.Run", run: quickPass, traced: quickTraced},
	{name: "sweep-congest-byz", why: "durable CONGEST sweep under spam, silent and crash adversaries", run: congestByzPass, traced: congestByzTraced},
	{name: "sweep-vt-churn", why: "durable benign sweep over virtual-time delay, fault and churn axes", run: vtChurnPass, traced: vtChurnTraced},
	{name: "scale-lattice", why: "one 2^17-vertex CONGEST cell on the implicit lattice, parallel engine", run: latticePass, traced: latticeTraced},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// coldCache empties the substrate cache so every pass starts as a fresh
// process does (a warm cache would let later runs of one invocation
// skip builds the first one paid for).
func coldCache() {
	expt.SetSubstrateCache(false)
	expt.SetSubstrateCache(true)
}

// ---- expt-quick -------------------------------------------------------

// quickSetupLoops is how many times quickSetup repeats the workload's
// set-up: it takes microseconds, so one timing would be mostly noise.
const quickSetupLoops = 2000

// quickSetup is expt-quick's work before its first cell: a cold
// substrate cache and the experiment IDs in order.
func quickSetup() []string {
	coldCache()
	return expt.IDs()
}

// quickSeeds is how many table seeds one expt-quick pass regenerates.
// A single seed's regeneration time swings by a fifth from seed to
// seed, so a pass averages over several, derived from the run's seed.
const quickSeeds = 3

func quickPass(e env) (*pass, error) {
	return quickRun(e, nil, -1)
}

// quickRun regenerates every E-table at each of the pass's seeds,
// checking each table against its claims. With a non-nil tracer each
// table and its rendering get a span under the parent span.
func quickRun(e env, tr *tracer, parent int) (*pass, error) {
	p := &pass{outputs: map[string]string{}}
	t0 := time.Now()
	for i := 0; i < quickSetupLoops; i++ {
		quickSetup()
	}
	p.setup = time.Since(t0).Seconds() / quickSetupLoops
	ids := quickSetup()
	h0, m0 := expt.SubstrateCacheStats()
	var ct *cellTrace
	if tr != nil {
		ct = tr.cell("", parent)
	}
	start := time.Now()
	for k := uint64(0); k < quickSeeds; k++ {
		cfg := expt.Config{Seed: e.seed*quickSeeds + k, Trials: 1, Quick: true, Parallel: e.workers}
		for _, id := range ids {
			key := fmt.Sprintf("%d/%s", cfg.Seed, id)
			var sp int
			if ct != nil {
				sp = ct.begin("expt.quick." + id)
			}
			t, err := expt.Run(id, cfg)
			if ct != nil {
				ct.end(sp)
			}
			p.cells++
			if err != nil {
				p.fail(key, "%v", err)
				continue
			}
			if ct != nil {
				sp = ct.begin("report.render")
			}
			p.outputs[key] = t.Render() + t.CSV()
			if ct != nil {
				ct.end(sp)
			}
			failed, reported := tableVerdict(t)
			for _, msg := range failed {
				p.fail(key, "%s", msg)
			}
			for _, msg := range reported {
				p.reported = append(p.reported, key+": "+msg)
			}
		}
	}
	p.wall = time.Since(start).Seconds()
	p.subHits, p.subMisses = expt.SubstrateCacheStats()
	p.subHits -= h0
	p.subMisses -= m0
	if ct != nil {
		tr.adopt(ct)
	}
	return p, nil
}

func quickTraced(e env, tr *tracer, lm layerMetrics) (*pass, error) {
	base, err := measured(e, quickPass)
	if err != nil {
		return nil, err
	}
	settle()
	root := tr.root("expt-quick")
	p, err := quickRun(e, tr, root)
	tr.closeRoot(root)
	if err != nil {
		return nil, err
	}
	again, err := measured(e, quickPass)
	if err != nil {
		return nil, err
	}
	compareOutputs(p, base, "untraced pass")
	compareOutputs(again, base, "first untraced pass")
	p.absorb(again)
	// Per regeneration: each table ran once per seed of the pass.
	for _, s := range tr.spans {
		if id, ok := strings.CutPrefix(s.Name, "expt.quick."); ok {
			lm["expt.quick."+id+"_ms"] += float64(s.dur()) / 1e6 / quickSeeds
		}
		if s.Name == "report.render" {
			lm["report.render_ms"] += float64(s.dur()) / 1e6 / quickSeeds
		}
	}
	lm.untraced(base)
	lm["trace.overhead_frac"] = p.wall/min(base.wall, again.wall) - 1
	return p, nil
}

// absorb takes over q's failures, so a check made on another pass
// counts against this one.
func (p *pass) absorb(q *pass) {
	for k := range q.failed {
		if p.failed == nil {
			p.failed = map[string]bool{}
		}
		p.failed[k] = true
	}
	p.problems = append(p.problems, q.problems...)
}

// ---- sweeps -----------------------------------------------------------

// sweepSpec is one sweep workload: its grid and trials per cell. Cells
// run nproc at a time.
type sweepSpec struct {
	name   string
	grid   expt.Matrix
	trials int
}

func (s sweepSpec) config(e env) expt.Config {
	return expt.Config{Seed: e.seed, Trials: s.trials, Parallel: e.workers}
}

// congestByz runs 38 cells x 2 trials (about 6.5 s on two cores). The
// second trial halves the share of the straggler tail (the last long
// spam cells running alone on one core) in a pass.
var congestByz = sweepSpec{
	name: "sweep-congest-byz",
	grid: expt.Matrix{
		Protos:      []string{"congest"},
		Substrates:  []string{"hnd"},
		Adversaries: []string{"spam", "silent", "crash"},
		Placements:  []string{"random", "clustered", "spread"},
		Ns:          []int{256, 1024},
		ByzFracs:    []float64{0, 0.02, 0.05},
		D:           8,
		MaxPhase:    8,
	},
	trials: 2,
}

// vtChurn runs 72 cells x 4 trials (about 3.8 s on two cores).
var vtChurn = sweepSpec{
	name: "sweep-vt-churn",
	grid: expt.Matrix{
		Protos:     []string{"congest", "geometric", "kmv", "support"},
		Substrates: []string{"hnd"},
		Ns:         []int{256},
		Churns:     []expt.ChurnProfile{{}, {Leaves: 2, Joins: 2, StopAfter: 150, Mixed: true}},
		Delays:     []string{"uniform:1-4", "gst:32/uniform:1-6", "region:2/1/6"},
		Faults:     []string{"none", "drop:0.05", "partition:2@16-48"},
		D:          8,
		MaxPhase:   8,
	},
	trials: 4,
}

func congestByzPass(e env) (*pass, error) { return sweepPass(e, congestByz) }
func vtChurnPass(e env) (*pass, error)    { return sweepPass(e, vtChurn) }

func congestByzTraced(e env, tr *tracer, lm layerMetrics) (*pass, error) {
	return sweepTraced(e, tr, lm, congestByz)
}

func vtChurnTraced(e env, tr *tracer, lm layerMetrics) (*pass, error) {
	return sweepTraced(e, tr, lm, vtChurn)
}

func cellKey(label string, trial int) string { return fmt.Sprintf("%s#%d", label, trial) }

// sweepSetupReps is how many set-up-only sweeps a pass makes besides
// its full one: set-up is a few milliseconds dominated by the
// manifest's fsync, so one sample per pass is mostly disk noise.
const sweepSetupReps = 20

// sweepSetup times one durable sweep's set-up: from the call to the
// driver's first progress callback, which it makes after enumerating
// and validating the grid and writing the manifest, before any cell.
// The callback cancels the sweep, so no cell runs.
func sweepSetup(e env, s sweepSpec) (float64, error) {
	dir, err := os.MkdirTemp(e.work, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var setup time.Duration
	start := time.Now()
	_, err = expt.RunMatrixSweep(ctx, s.config(e), s.grid, dir, expt.SweepOptions{OnCell: func(done, total int) {
		if setup == 0 {
			setup = time.Since(start)
			cancel()
		}
	}})
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, err
	}
	return setup.Seconds(), nil
}

// sweepPass runs the grid as a durable sweep into a fresh directory
// and checks every logged cell. Its set-up time is the median over the
// full sweep and sweepSetupReps set-up-only ones.
func sweepPass(e env, s sweepSpec) (*pass, error) {
	var setups []float64
	for i := 0; i < sweepSetupReps; i++ {
		d, err := sweepSetup(e, s)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	scs, _, err := s.grid.Scenarios()
	if err != nil {
		return nil, err
	}
	byLabel := make(map[string]expt.Scenario, len(scs))
	for _, sc := range scs {
		byLabel[sc.Label()] = sc
	}
	dir, err := os.MkdirTemp(e.work, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	coldCache()
	h0, m0 := expt.SubstrateCacheStats()
	p := &pass{outputs: map[string]string{}, vals: map[string][numVals]float64{}}
	var setup time.Duration
	start := time.Now()
	sum, err := expt.RunMatrixSweep(context.Background(), s.config(e), s.grid, dir,
		expt.SweepOptions{OnCell: func(done, total int) {
			if setup == 0 {
				setup = time.Since(start)
			}
		}})
	p.wall = time.Since(start).Seconds()
	p.setup = median(append(setups, setup.Seconds()))
	if err != nil {
		return nil, err
	}
	p.subHits, p.subMisses = expt.SubstrateCacheStats()
	p.subHits -= h0
	p.subMisses -= m0
	p.cells = sum.Total
	for _, q := range sum.Quarantined {
		p.fail(cellKey(q.Row, q.Trial), "quarantined after %d attempts: %s", q.Attempts, q.Err)
	}
	if sum.Table == nil {
		p.fail("table", "sweep produced no table")
	} else {
		p.outputs["table"] = sum.Table.Render()
	}
	log, recs, err := sweep.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	log.Close()
	if fi, err := os.Stat(filepath.Join(dir, sweep.LogName)); err == nil {
		p.walBytes = fi.Size()
	}
	for _, rec := range recs {
		if rec.Failed() {
			continue
		}
		var v [numVals]float64
		copy(v[:], rec.Floats())
		key := cellKey(rec.Row, rec.Trial)
		p.vals[key] = v
		p.outputs[key] = fmt.Sprint(rec.Vals)
		p.msgs += v[valMsgs]
		if err := checkCell(byLabel[rec.Row], v); err != nil {
			p.fail(key, "%v", err)
		}
	}
	if len(p.vals)+len(sum.Quarantined) != sum.Total {
		p.fail("log", "holds %d healthy cells, want %d", len(p.vals), sum.Total-len(sum.Quarantined))
	}
	return p, nil
}

// tracedCell is one recomposed cell, handed from the feeder to a
// worker and from the worker to the collector.
type tracedCell struct {
	sc    expt.Scenario
	key   string
	trial int
	seed  uint64
	ct    *cellTrace
	st    *cellStats
	err   error
}

// sweepTraced runs the grid three ways: the durable sweep (the
// untraced baseline), the in-memory matrix driver on the same grid (for
// the durable driver's overhead), and the traced recomposition of
// every cell, at the same parallelism, appending each result to a
// fresh log as the durable driver does (from the worker, under a lock,
// so a cell's span ends when its append does). Every recomposed cell must
// reproduce the durable sweep's vector bit for bit.
func sweepTraced(e env, tr *tracer, lm layerMetrics, s sweepSpec) (*pass, error) {
	base, err := measured(e, func(e env) (*pass, error) { return sweepPass(e, s) })
	if err != nil {
		return nil, err
	}
	lm.untraced(base)
	if base.cells > 0 {
		lm["sweep.wal_bytes_per_cell"] = float64(base.walBytes) / float64(base.cells)
	}

	coldCache()
	t0 := time.Now()
	_, err = expt.RunMatrixCtx(context.Background(), s.config(e), s.grid)
	if err != nil {
		return nil, err
	}
	lm["sweep.overhead_frac"] = base.wall/time.Since(t0).Seconds() - 1

	scs, _, err := s.grid.Scenarios()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, _, err := sweep.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	defer log.Close()

	p := &pass{outputs: map[string]string{}, vals: map[string][numVals]float64{}}
	root := xrand.New(e.seed)
	settle()
	tasks := make(chan tracedCell)
	results := make(chan tracedCell)
	var walMu sync.Mutex // the log is appended from every worker
	var walErr error
	var wg sync.WaitGroup
	rootSpan := tr.root(s.name)
	start := time.Now()
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range tasks {
				c.ct = tr.cell(c.key, rootSpan)
				sp := c.ct.begin("cell")
				c.st, c.err = runCell(c.sc, root.SplitN(c.sc.Label(), c.trial), 1, c.ct, true)
				if c.err == nil {
					walMu.Lock()
					ap := c.ct.begin("sweep.append")
					err := log.Append(sweep.Record{Row: c.sc.Label(), Trial: c.trial, Seed: c.seed,
						Vals: sweep.PackFloats(c.st.vals[:]), Attempts: 1})
					c.ct.end(ap)
					if err != nil && walErr == nil {
						walErr = err
					}
					walMu.Unlock()
				}
				c.ct.end(sp)
				results <- c
			}
		}()
	}
	go func() {
		for _, sc := range scs {
			for t := 0; t < s.trials; t++ {
				tasks <- tracedCell{sc: sc, key: cellKey(sc.Label(), t), trial: t, seed: root.SplitN(sc.Label(), t).Seed()}
			}
		}
		close(tasks)
	}()
	var cells []*cellStats
	for n := 0; n < len(scs)*s.trials; n++ {
		c := <-results
		tr.adopt(c.ct)
		p.cells++
		if c.err != nil {
			p.fail(c.key, "%v", c.err)
			continue
		}
		p.vals[c.key] = c.st.vals
		p.msgs += c.st.vals[valMsgs]
		cells = append(cells, c.st)
	}
	wg.Wait()
	if walErr != nil {
		return nil, walErr
	}
	syncStart := time.Now()
	if err := log.Sync(); err != nil {
		return nil, err
	}
	lm["sweep.sync_ms"] = float64(time.Since(syncStart)) / 1e6
	p.wall = time.Since(start).Seconds()
	tr.closeRoot(rootSpan)

	again, err := measured(e, func(e env) (*pass, error) { return sweepPass(e, s) })
	if err != nil {
		return nil, err
	}
	compareOutputs(again, base, "first durable sweep")
	p.absorb(again)
	for key, v := range p.vals {
		want, ok := base.vals[key]
		if !ok {
			p.fail(key, "traced cell has no durable counterpart")
		} else if v != want {
			p.fail(key, "traced vector %v != durable %v", v, want)
		}
	}
	if len(p.vals) != len(base.vals) {
		p.fail("log", "traced run recomputed %d cells, the durable sweep logged %d", len(p.vals), len(base.vals))
	}
	lm.cells(tr, cells, p.wall, e.workers)
	lm["trace.overhead_frac"] = p.wall/min(base.wall, again.wall) - 1
	return p, nil
}

// ---- scale-lattice ----------------------------------------------------

// latticeN is the vertex count: n=10^6 at max-phase 3 exhausted 7.8 GB
// of memory; 2^17 peaks near 1.2 GB.
const latticeN = 1 << 17

func latticeScenario() expt.Scenario {
	return expt.Scenario{Proto: "congest", Substrate: "lattice", Adversary: "none", Placement: "random",
		N: latticeN, D: 8, MaxPhase: 3}
}

// latticeOutputs renders the cell's metrics and estimate histogram.
func latticeOutputs(st *cellStats) map[string]string {
	m := st.metrics
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d messages=%d bits=%d maxbits=%d violations=%d capped=%d dropped=%d\n",
		m.Rounds, m.Messages, m.Bits, m.MaxMsgBits, m.Violations, m.Capped, m.Dropped)
	fmt.Fprintf(&b, "byRound=%v\n", m.MessagesByRound)
	keys := make([]int, 0, len(st.hist))
	for k := range st.hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%d ", k, st.hist[k])
	}
	return map[string]string{"metrics": b.String(), "vals": fmt.Sprint(st.vals)}
}

// checkLattice states the benign CONGEST guarantee for the lattice
// cell: every node decides, within the log_d band.
func checkLattice(p *pass, st *cellStats) {
	sc := latticeScenario()
	if err := checkCell(sc, st.vals); err != nil {
		p.fail("lattice", "%v", err)
	}
	if st.alive != sc.N {
		p.fail("lattice", "%d nodes, want %d", st.alive, sc.N)
	}
}

func latticePass(e env) (*pass, error) {
	return latticeRun(e, e.workers, nil, -1)
}

// latticeRun composes the cell from the calls RunScenario's implicit
// path makes, so set-up (topology, sim.New, Attach) ends where
// Engine.Run starts. With a non-nil tracer the cell is traced under the
// parent span.
func latticeRun(e env, workers int, tr *tracer, parent int) (*pass, error) {
	t := tr
	if t == nil {
		t = newTracer()
	}
	ct := t.cell(cellKey(latticeScenario().Label(), 0), parent)
	sp := ct.begin("cell")
	st, err := runCell(latticeScenario(), xrand.New(e.seed), workers, ct, tr != nil)
	ct.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.adopt(ct)
	}
	p := &pass{
		wall:    float64(ct.spans[sp].dur()) / 1e9,
		setup:   float64(st.setupNs) / 1e9,
		cells:   1,
		msgs:    float64(st.metrics.Messages),
		outputs: latticeOutputs(st),
		lattice: st,
	}
	checkLattice(p, st)
	return p, nil
}

func latticeTraced(e env, tr *tracer, lm layerMetrics) (*pass, error) {
	sc := latticeScenario()
	// The program's own path, for the equality the composition promises.
	var ref *pass
	_, err := measured(e, func(e env) (*pass, error) {
		r, err := expt.RunScenario(sc, xrand.New(e.seed), expt.RunOptions{Workers: e.workers})
		if err != nil {
			return nil, err
		}
		vals, hist := cellVector(sc, r.Outcomes, r.Honest, r.Rounds, r.Metrics.Messages)
		ref = &pass{outputs: latticeOutputs(&cellStats{vals: vals, hist: hist, metrics: r.Metrics})}
		return ref, nil
	})
	if err != nil {
		return nil, err
	}
	base, err := measured(e, latticePass)
	if err != nil {
		return nil, err
	}
	lm.untraced(base)
	lm["runtime.bytes_per_vertex"] = base.rssMB * (1 << 20) / float64(sc.N)
	serial, err := measured(e, func(e env) (*pass, error) { return latticeRun(e, 1, nil, -1) })
	if err != nil {
		return nil, err
	}
	lm["sim.worker_speedup"] = float64(serial.lattice.runNs) / float64(base.lattice.runNs)

	settle()
	rootSpan := tr.root("scale-lattice")
	p, err := latticeRun(e, e.workers, tr, rootSpan)
	tr.closeRoot(rootSpan)
	if err != nil {
		return nil, err
	}
	compareOutputs(p, ref, "expt.RunScenario")
	compareOutputs(p, base, "untraced pass")
	compareOutputs(p, serial, "serial engine")
	lm.cells(tr, []*cellStats{p.lattice}, p.wall, 1)
	lm["trace.overhead_frac"] = p.wall/base.wall - 1
	return p, nil
}

// compareOutputs fails p on every output that differs from ref's.
func compareOutputs(p, ref *pass, what string) {
	keys := make([]string, 0, len(ref.outputs))
	for k := range ref.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := p.outputs[k]; !ok || got != ref.outputs[k] {
			p.fail(k, "output differs from the %s", what)
		}
	}
}

// measured runs one pass from a collected heap with a fresh resident
// high-water mark, charging it the runtime counters it moved.
func measured(e env, f func(env) (*pass, error)) (*pass, error) {
	settle()
	before := snapRuntime()
	cpu0 := cpuSeconds()
	st0, tot0 := stealTicks()
	p, err := f(e)
	if err != nil {
		return nil, err
	}
	p.cpu = cpuSeconds() - cpu0
	st1, tot1 := stealTicks()
	p.steal = frac(st1-st0, tot1-tot0)
	p.rt = before.to(snapRuntime())
	p.rssMB = peakRSSBytes() / (1 << 20)
	return p, nil
}
