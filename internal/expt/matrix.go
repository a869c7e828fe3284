package expt

// The matrix runner: enumerate any slice of the scenario grid and run
// every cell through the shared concurrent sweep driver. This is what
// `byzcount matrix` executes — the cross-product counterpart of the
// fixed experiments, for exploring combinations no E-runner hard-wires.

import (
	"context"
	"fmt"

	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

// Matrix selects a slice of the scenario grid: the cross-product of the
// listed axis values. Empty axis lists select the single default value
// of that axis.
type Matrix struct {
	Protos      []string
	Substrates  []string
	Adversaries []string
	Placements  []string
	Ns          []int
	ByzFracs    []float64 // 0 entries mean benign
	Churns      []ChurnProfile
	// Delays and Faults are the virtual-time delivery axes: delay-model
	// and fault-model specs per sim.ParseDelayModel/ParseFaultModel.
	// Empty strings (and an empty list) select the synchronous default.
	Delays []string
	Faults []string

	D        int // shared degree parameter (default 8)
	MaxPhase int // congest phase cap (default 8: bounds hostile cells)
	StopFrac float64
}

// orDefault returns vals, or the single fallback when empty.
func orDefault[T any](vals []T, fallback T) []T {
	if len(vals) == 0 {
		return []T{fallback}
	}
	return vals
}

// checkAxes validates every listed axis value against its registry, so
// a typo fails with the registry's vocabulary before any cell runs.
func (m Matrix) checkAxes() error {
	for _, p := range m.Protos {
		if _, ok := Protocols[p]; !ok {
			return fmt.Errorf("expt: unknown protocol %q (have %v)", p, ProtocolNames())
		}
	}
	for _, s := range m.Substrates {
		if _, ok := Substrates[s]; !ok {
			return fmt.Errorf("expt: unknown substrate %q (have %v)", s, SubstrateNames())
		}
	}
	for _, a := range m.Adversaries {
		if _, ok := Adversaries[a]; !ok {
			return fmt.Errorf("expt: unknown adversary %q (have %v)", a, AdversaryNames())
		}
	}
	for _, p := range m.Placements {
		if _, ok := Placements[p]; !ok {
			return fmt.Errorf("expt: unknown placement %q (have %v)", p, PlacementNames())
		}
	}
	for _, spec := range m.Delays {
		if _, err := sim.ParseDelayModel(spec); err != nil {
			return err
		}
	}
	for _, spec := range m.Faults {
		if _, err := sim.ParseFaultModel(spec); err != nil {
			return err
		}
	}
	return nil
}

// Scenarios enumerates the cross-product in axis-major order (protocol
// outermost, fault innermost). Unknown axis values and out-of-range
// numbers (see Scenario.checkValues) error; cells whose
// axes merely do not compose (a Byzantine budget with the "none"
// adversary, a schedule-driven adversary on a non-CONGEST protocol,
// churn on a static-only substrate) are counted and skipped — a slice
// of a grid legitimately crosses such holes.
func (m Matrix) Scenarios() (cells []Scenario, skipped int, err error) {
	if err := m.checkAxes(); err != nil {
		return nil, 0, err
	}
	d := m.D
	if d == 0 {
		d = 8
	}
	maxPhase := m.MaxPhase
	if maxPhase == 0 {
		maxPhase = 8
	}
	for _, proto := range orDefault(m.Protos, "congest") {
		for _, sub := range orDefault(m.Substrates, "hnd") {
			for _, adv := range orDefault(m.Adversaries, "none") {
				for _, pl := range orDefault(m.Placements, "random") {
					for _, n := range orDefault(m.Ns, 256) {
						for _, frac := range orDefault(m.ByzFracs, 0) {
							for _, churn := range orDefault(m.Churns, ChurnProfile{}) {
								for _, delay := range orDefault(m.Delays, "") {
									for _, fault := range orDefault(m.Faults, "") {
										sc := Scenario{
											Proto: proto, Substrate: sub,
											Adversary: adv, Placement: pl,
											N: n, D: d, ByzFrac: frac,
											Churn: churn, Dynamic: churn.Active(),
											MaxPhase: maxPhase, StopFrac: m.StopFrac,
											Delay: delay, Fault: fault,
										}
										if err := sc.checkValues(); err != nil {
											return nil, 0, err
										}
										if frac == 0 && adv != "none" {
											// A benign cell is the same run whatever
											// the adversary axis says; keep the grid
											// free of duplicates by naming it "none".
											sc.Adversary = "none"
										}
										if frac > 0 && adv == "none" {
											skipped++
											continue
										}
										if err := sc.Validate(); err != nil {
											skipped++
											continue
										}
										cells = append(cells, sc)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return dedupeScenarios(cells), skipped, nil
}

// dedupeScenarios drops cells with identical labels (the benign
// collapses above can alias rows).
func dedupeScenarios(scs []Scenario) []Scenario {
	seen := make(map[string]bool, len(scs))
	out := scs[:0]
	for _, sc := range scs {
		l := sc.Label()
		if !seen[l] {
			seen[l] = true
			out = append(out, sc)
		}
	}
	return out
}

// The per-cell metric vector both matrix drivers share: RunMatrix
// retains the vectors per row and feeds batch stats.Mean; the durable
// sweep streams them through stats.Online in trial order. The two ways
// produce byte-identical table rows because the plain running sum adds
// the same float64s in the same order the batch Mean does.
const (
	cellByz = iota
	cellRounds
	cellDecided
	cellBounded
	cellMedian
	cellMsgs
	numCellMetrics
)

// matrixMetricCols are the aggregated metric column names, in cell
// vector order (the full table row prepends "scenario" and interposes
// the analytic log_d(n)).
var matrixMetricCols = []string{"byz", "rounds", "decided_frac", "bounded_frac", "median_est", "msgs"}

// matrixCellVals runs one (scenario, trial) cell and distills the
// outcome into the shared metric vector. This is the single definition
// of what a matrix cell measures — the in-memory table, the durable
// WAL records, and the JSONL summaries all consume it.
func matrixCellVals(ctx context.Context, sc Scenario, rng *xrand.Rand) ([numCellMetrics]float64, error) {
	var out [numCellMetrics]float64
	r, err := RunScenario(sc, rng, RunOptions{Context: ctx})
	if err != nil {
		return out, err
	}
	out[cellRounds] = float64(r.Rounds)
	out[cellMsgs] = float64(r.Metrics.Messages)
	honestTotal, dec := 0, 0
	logd := counting.LogD(sc.withDefaults().N, sc.withDefaults().D)
	bnd := 0
	for i, o := range r.Outcomes {
		if !r.Honest[i] {
			out[cellByz]++
			continue
		}
		honestTotal++
		if !o.Decided {
			continue
		}
		dec++
		if float64(o.Estimate) >= 0.5*logd && float64(o.Estimate) <= 2*logd+2 {
			bnd++
		}
	}
	if honestTotal > 0 {
		out[cellDecided] = float64(dec) / float64(honestTotal)
		out[cellBounded] = float64(bnd) / float64(honestTotal)
	}
	vals := counting.DecidedEstimates(r.Outcomes, r.Honest)
	out[cellMedian] = stats.Median(stats.Ints(vals))
	return out, nil
}

// matrixTable builds the empty matrix table shell shared by RunMatrix
// and the durable sweep (identical Columns and Notes are part of the
// byte-identity contract between the two paths).
func matrixTable(cells, trials, skipped int) *Table {
	t := &Table{
		ID:      "matrix",
		Title:   fmt.Sprintf("Scenario matrix: %d cells x %d trials", cells, trials),
		Columns: []string{"scenario", "byz", "rounds", "decided_frac", "bounded_frac", "median_est", "log_d(n)", "msgs"},
	}
	t.Notes = append(t.Notes,
		"bounded_frac uses the CONGEST band [0.5*log_d n, 2*log_d n + 2]; interpret it per protocol",
		"each cell's randomness is the pure sub-seed of its label: adding or removing cells never perturbs the others")
	if skipped > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d cells of the requested cross-product were skipped as incompatible axis combinations", skipped))
	}
	return t
}

// RunMatrix executes every cell of the matrix through the sweep driver
// (cfg.Trials trials per cell, cfg.Parallel concurrent cells, each
// cell's randomness the pure sub-seed of its label) and renders one row
// per cell. Tables are byte-identical for every Parallel value, like
// every experiment.
func RunMatrix(cfg Config, m Matrix) (*Table, error) {
	return RunMatrixCtx(context.Background(), cfg, m)
}

// RunMatrixCtx is RunMatrix with cooperative cancellation: in-flight
// engines abort at their next round boundary and unstarted cells are
// never launched. A canceled matrix returns the context's error, not a
// partial table.
func RunMatrixCtx(ctx context.Context, cfg Config, m Matrix) (*Table, error) {
	scs, skipped, err := m.Scenarios()
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("expt: empty matrix (%d cells skipped as incompatible)", skipped)
	}
	t := matrixTable(len(scs), cfg.trials(), skipped)
	root := xrand.New(cfg.Seed)
	results, err := sweepRowsCtx(ctx, cfg, root, scs,
		func(sc Scenario) string { return sc.Label() },
		func(ctx context.Context, sc Scenario, trial int, rng *xrand.Rand) ([numCellMetrics]float64, error) {
			return matrixCellVals(ctx, sc, rng)
		})
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		rs := results[i]
		scd := sc.withDefaults()
		t.AddRow(sc.Label(),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellByz] })),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellRounds] })),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellDecided] })),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellBounded] })),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellMedian] })),
			counting.LogD(scd.N, scd.D),
			stats.Mean(column(rs, func(r [numCellMetrics]float64) float64 { return r[cellMsgs] })))
	}
	return t, nil
}
