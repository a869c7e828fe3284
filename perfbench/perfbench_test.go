package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"byzcount/internal/expt"
	"byzcount/internal/xrand"
)

// The recomposed pipeline must reproduce RunScenario's cell vector,
// metrics and estimate histogram on one cell of each shape it covers,
// traced and untraced alike.
func TestRecomposedCellMatchesRunScenario(t *testing.T) {
	cases := []struct {
		shape   string
		sc      expt.Scenario
		workers int
		rng     func(sc expt.Scenario) *xrand.Rand
	}{
		{"static synchronous", expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "spam", Placement: "clustered",
			N: 128, D: 8, ByzFrac: 0.05, MaxPhase: 4}, 1, sweepStream},
		{"static synchronous, crash", expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "crash", Placement: "spread",
			N: 128, D: 8, ByzFrac: 0.05, MaxPhase: 4}, 1, sweepStream},
		{"static virtual time", expt.Scenario{Proto: "kmv", Substrate: "hnd", Adversary: "none", Placement: "random",
			N: 128, D: 8, MaxPhase: 8, Delay: "uniform:1-4", Fault: "drop:0.05"}, 1, sweepStream},
		{"churn virtual time", expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "none", Placement: "random",
			N: 128, D: 8, MaxPhase: 8, Churn: expt.ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 150, Mixed: true},
			Dynamic: true, Delay: "gst:32/uniform:1-6", Fault: "partition:2@16-48"}, 1, sweepStream},
		{"churn virtual time, spam", expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "spam", Placement: "random",
			N: 128, D: 8, ByzFrac: 0.05, MaxPhase: 4, Churn: expt.ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 60, Mixed: true},
			Dynamic: true, Delay: "uniform:1-4"}, 1, sweepStream},
		{"implicit, 2 workers", expt.Scenario{Proto: "congest", Substrate: "lattice", Adversary: "none", Placement: "random",
			N: 4096, D: 8, MaxPhase: 3}, 2, func(expt.Scenario) *xrand.Rand { return xrand.New(7) }},
	}
	for _, c := range cases {
		t.Run(c.shape, func(t *testing.T) {
			r, err := expt.RunScenario(c.sc, c.rng(c.sc), expt.RunOptions{Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			want, wantHist := cellVector(c.sc, r.Outcomes, r.Honest, r.Rounds, r.Metrics.Messages)
			for _, traced := range []bool{false, true} {
				tr := newTracer()
				ct := tr.cell("cell", -1)
				st, err := runCell(c.sc, c.rng(c.sc), c.workers, ct, traced)
				if err != nil {
					t.Fatal(err)
				}
				if st.vals != want {
					t.Errorf("traced=%v: vector %v, RunScenario %v", traced, st.vals, want)
				}
				if !reflect.DeepEqual(st.hist, wantHist) {
					t.Errorf("traced=%v: histogram %v, RunScenario %v", traced, st.hist, wantHist)
				}
				if got, want := fmt.Sprint(st.metrics), fmt.Sprint(r.Metrics); got != want {
					t.Errorf("traced=%v: metrics differ from RunScenario's", traced)
				}
				if traced && st.steps[kindCongest]+st.steps[kindBaseline] == 0 {
					t.Errorf("traced run timed no Step calls")
				}
			}
		})
	}
}

func sweepStream(sc expt.Scenario) *xrand.Rand { return xrand.New(7).SplitN(sc.Label(), 1) }

// The recomposition refuses what it does not model rather than
// guessing.
func TestRecomposedCellRejectsUncoveredAxes(t *testing.T) {
	sc := expt.Scenario{Proto: "local", Substrate: "hnd", Adversary: "none", Placement: "random", N: 64, D: 8}
	tr := newTracer()
	if _, err := runCell(sc, xrand.New(1), 1, tr.cell("c", -1), true); err == nil {
		t.Fatal("runCell accepted the local protocol")
	}
}

// The gate must fire on a deliberately altered table and on an altered
// sweep cell, and stay quiet on the originals.
func TestGateFiresOnAlteredTable(t *testing.T) {
	tab, err := expt.Run("E13", expt.Config{Seed: 3, Trials: 1, Quick: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := tableVerdict(tab); len(failed) > 0 {
		t.Fatalf("unaltered E13 fails: %v", failed)
	}
	col := -1
	for i, c := range tab.Columns {
		if c == "decided_frac" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("E13 has no decided_frac column")
	}
	tab.Rows[0][col] = "0.5"
	failed, _ := tableVerdict(tab)
	if len(failed) == 0 || !strings.HasPrefix(failed[0], "E13.crash-tolerated") {
		t.Fatalf("altered E13 passes the gate: %v", failed)
	}

	sc := expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "none", Placement: "random", N: 256, D: 8}
	good := [numVals]float64{0, 97, 1, 1, 4, 79200}
	if err := checkCell(sc, good); err != nil {
		t.Fatalf("benign cell fails: %v", err)
	}
	bad := good
	bad[valBounded] = 0.8
	if checkCell(sc, bad) == nil {
		t.Fatal("a benign cell with bounded_frac 0.8 passes")
	}
}

// Outputs that differ between runs of one invocation are failures.
func TestCompareOutputsFlagsDifferences(t *testing.T) {
	ref := &pass{outputs: map[string]string{"E1": "a", "E2": "b"}}
	p := &pass{outputs: map[string]string{"E1": "a", "E2": "c"}}
	compareOutputs(p, ref, "first run")
	if len(p.failed) != 1 || !p.failed["E2"] {
		t.Fatalf("failed = %v, want only E2", p.failed)
	}
}

// Self time subtracts the union of child intervals, so overlapping
// children (concurrent cells) are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "workload", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cell", Start: 10, End: 60},
		{ID: 2, Parent: 0, Name: "cell", Start: 40, End: 90},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 20, End: 50},
	}}
	if got, want := tr.selfTimes(), []int64{20, 20, 50, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// BENCHMARK.json at the repository root must name exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.json {
			got[m.Name] = m.Unit
		}
		wantUnits := map[string]string{}
		for _, d := range c.defs {
			wantUnits[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, wantUnits) {
			t.Errorf("BENCHMARK.json %s %v, program %v", c.what, got, wantUnits)
		}
	}
}

// The traced sweep recomposes every cell on concurrent workers and must
// reproduce the durable sweep's log exactly; run it under -race.
func TestSweepTracedMatchesDurableSweep(t *testing.T) {
	s := sweepSpec{name: "tiny", trials: 2, grid: expt.Matrix{
		Protos: []string{"congest"}, Substrates: []string{"hnd"}, Adversaries: []string{"spam", "crash"},
		Placements: []string{"random"}, Ns: []int{64}, ByzFracs: []float64{0, 0.05}, D: 8, MaxPhase: 3,
		Delays: []string{"", "uniform:1-4"},
	}}
	e := env{seed: 5, workers: 2, work: t.TempDir()}
	tr := newTracer()
	lm := newLayerMetrics()
	p, err := sweepTraced(e, tr, lm, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failed) > 0 {
		t.Fatalf("traced sweep failed its checks: %v", p.problems)
	}
	if p.cells != 12 || lm["expt.cells"] != 12 {
		t.Fatalf("cells %d, expt.cells %g, want 12", p.cells, lm["expt.cells"])
	}
	if lm["sim.round_p50_us"] <= 0 || lm["counting.congest.step_ns"] <= 0 || lm["byzantine.step_ns"] <= 0 {
		t.Fatalf("layer metrics missing: %v", lm)
	}
}
