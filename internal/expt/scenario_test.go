package expt

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func TestScenarioValidate(t *testing.T) {
	bad := []struct {
		sc   Scenario
		want string // substring the error must teach
	}{
		{Scenario{Proto: "bogus"}, "congest"},
		{Scenario{Substrate: "bogus"}, "hnd"},
		{Scenario{Adversary: "bogus", Byz: 1}, "spam"},
		{Scenario{Placement: "bogus"}, "clustered"},
		{Scenario{Proto: "geometric", Adversary: "spam", Byz: 1}, "schedule-driven"},
		{Scenario{Substrate: "ring", Churn: ChurnProfile{Leaves: 1, Joins: 1}, Adversary: "silent"}, "hnd"},
		{Scenario{ByzJoiners: 1, Adversary: "silent"}, "churn"},
		{Scenario{ByzJoiners: 1, ByzFrac: 0.05, Adversary: "silent",
			Churn: ChurnProfile{Leaves: 1, Joins: 1}}, "benign"},
		{Scenario{Byz: 2}, "adversary"}, // Byzantine nodes with adversary "none"
		{Scenario{N: 2}, "degenerate"},
		{Scenario{D: 1}, "d >= 2"}, // the CONGEST schedule needs d >= 2
		{Scenario{Delay: "bogus"}, "delay"},
		{Scenario{Delay: "uniform:4-1"}, "uniform"},
		{Scenario{Fault: "bogus"}, "fault"},
		{Scenario{Fault: "drop:1.5"}, "drop"},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("scenario %+v accepted", tc.sc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("scenario %+v: error %q does not mention %q", tc.sc, err, tc.want)
		}
	}
	good := Scenario{Proto: "congest", Adversary: "spam", Byz: 4,
		Churn: ChurnProfile{Leaves: 1, Joins: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// TestScenarioValidateRanges: out-of-range numbers are rejected, not
// silently read as a default — a negative count or cap, and a fraction
// that is NaN or outside [0, 1]. Matrix reports the same values as an
// error instead of skipping the cell as an incompatible combination.
func TestScenarioValidateRanges(t *testing.T) {
	churn := ChurnProfile{Leaves: 1, Joins: 1}
	bad := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Byz: -1}, "Byz"},
		{Scenario{ByzJoiners: -1, Churn: churn}, "ByzJoiners"},
		{Scenario{Churn: ChurnProfile{Leaves: -1, Joins: 1}}, "Churn.Leaves"},
		{Scenario{Churn: ChurnProfile{Leaves: 1, Joins: -2}}, "Churn.Joins"},
		{Scenario{Churn: ChurnProfile{Leaves: 2, Joins: 2, StopAfter: -5}}, "Churn.StopAfter"},
		{Scenario{MaxPhase: -3}, "MaxPhase"},
		{Scenario{MaxRounds: -1}, "MaxRounds"},
		{Scenario{Adversary: "spam", ByzFrac: math.NaN()}, "ByzFrac"},
		{Scenario{Adversary: "spam", ByzFrac: -0.1}, "ByzFrac"},
		{Scenario{Adversary: "spam", ByzFrac: 1.5}, "ByzFrac"},
		{Scenario{Adversary: "spam", ByzFrac: math.Inf(1)}, "ByzFrac"},
		{Scenario{StopFrac: 7}, "StopFrac"},
		{Scenario{StopFrac: -0.5}, "StopFrac"},
		{Scenario{StopFrac: math.NaN()}, "StopFrac"},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("scenario %+v accepted", tc.sc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("scenario %+v: error %q does not name %q", tc.sc, err, tc.want)
		}
	}
	good := []Scenario{
		{ByzFrac: 0, StopFrac: 0},
		{Adversary: "spam", ByzFrac: 1, StopFrac: 1},
		{Churn: ChurnProfile{Leaves: 0, Joins: 0, StopAfter: 0}, MaxPhase: 0, MaxRounds: 0},
	}
	for _, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %+v rejected: %v", sc, err)
		}
	}
	for _, m := range []Matrix{
		{Adversaries: []string{"spam"}, ByzFracs: []float64{math.NaN()}},
		{Adversaries: []string{"spam"}, ByzFracs: []float64{-0.1}},
		{StopFrac: 7},
		{MaxPhase: -3},
		{Churns: []ChurnProfile{{Leaves: 2, Joins: 2, StopAfter: -5}}},
	} {
		if _, _, err := m.Scenarios(); err == nil {
			t.Errorf("matrix %+v enumerated without error", m)
		}
	}
}

func TestScenarioLabel(t *testing.T) {
	sc := Scenario{Proto: "congest", Adversary: "spam", Placement: "clustered",
		N: 128, Byz: 6, Churn: ChurnProfile{Leaves: 2, Joins: 2}}
	if got, want := sc.Label(), "congest/hnd/spam/clustered/n=128/byz=6/churn=2-2"; got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	benign := Scenario{}
	if got, want := benign.Label(), "congest/hnd/none/n=256"; got != want {
		t.Errorf("benign label = %q, want %q", got, want)
	}
	// The label is the matrix dedupe key and the sweep sub-seed: every
	// cell-selecting field must distinguish it — notably the full churn
	// profile (quiesce round and stream derivation included).
	distinct := []Scenario{
		sc,
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 50}},
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2, Mixed: true}},
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, D: 4, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2}},
		{Dynamic: true},
		{},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		if j, dup := seen[s.Label()]; dup {
			t.Errorf("scenarios %d and %d collapse onto label %q", i, j, s.Label())
		}
		seen[s.Label()] = i
	}
	// The delivery axes select cells too: specs appear verbatim, and
	// fault "none" collapses onto the default.
	vt := Scenario{Delay: "gst:32/uniform:1-6", Fault: "partition:2@16-48"}
	if got, want := vt.Label(), "congest/hnd/none/n=256/delay=gst:32/uniform:1-6/fault=partition:2@16-48"; got != want {
		t.Errorf("virtual-time label = %q, want %q", got, want)
	}
	if got, want := (Scenario{Fault: "none"}).Label(), (Scenario{}).Label(); got != want {
		t.Errorf("fault \"none\" label = %q, want the default %q", got, want)
	}
}

// TestScenarioVirtualTimeDeterminism: cells on the event-ring scheduler
// — jittered latency, GST, drops, partitions, on static and churning
// substrates — are pure functions of the seed and bit-identical across
// engine worker counts, exactly like their synchronous siblings.
func TestScenarioVirtualTimeDeterminism(t *testing.T) {
	cells := []Scenario{
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "uniform:1-4"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "gst:12/uniform:1-6", Fault: "drop:0.05"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "unit", Fault: "partition:2@8-30"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "geo:0.5@6",
			Churn: ChurnProfile{Leaves: 1, Joins: 1, StopAfter: 30, Mixed: true}},
	}
	for _, sc := range cells {
		sc := sc
		t.Run(sc.Label(), func(t *testing.T) {
			t.Parallel()
			type snap struct {
				outcomes any
				metrics  any
				rounds   int
			}
			runOnce := func(workers int) snap {
				t.Helper()
				out, err := RunScenario(sc, xrand.New(99), RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return snap{out.Outcomes, out.Metrics, out.Rounds}
			}
			serial := runOnce(1)
			if serial.rounds == 0 {
				t.Fatal("degenerate run")
			}
			for _, w := range []int{3, 8} {
				if got := runOnce(w); !reflect.DeepEqual(serial, got) {
					t.Errorf("workers=%d diverges from serial", w)
				}
			}
		})
	}
}

func TestMatrixScenarios(t *testing.T) {
	m := Matrix{
		Protos:      []string{"congest"},
		Adversaries: []string{"none", "spam"},
		ByzFracs:    []float64{0, 0.05},
		Churns:      []ChurnProfile{{}, {Leaves: 2, Joins: 2, StopAfter: 50, Mixed: true}},
		Ns:          []int{64},
	}
	scs, skipped, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	// 2 adversaries x 2 fracs x 2 churns = 8 raw cells; (none, 0.05)
	// pairs are skipped (2) and (spam, 0) collapses onto (none, 0) so
	// the dedupe drops 2 more.
	if len(scs) != 4 || skipped != 2 {
		labels := make([]string, len(scs))
		for i, sc := range scs {
			labels[i] = sc.Label()
		}
		t.Errorf("got %d cells (skipped %d): %v", len(scs), skipped, labels)
	}
	if _, _, err := (Matrix{Adversaries: []string{"bogus"}}).Scenarios(); err == nil {
		t.Error("unknown adversary axis value accepted")
	}
}

// TestMatrixIdenticalAcrossParallelism: matrix tables, like experiment
// tables, are byte-identical whatever the sweep concurrency.
func TestMatrixIdenticalAcrossParallelism(t *testing.T) {
	m := Matrix{
		Adversaries: []string{"none", "spam"},
		ByzFracs:    []float64{0, 0.1},
		Churns:      []ChurnProfile{{Leaves: 2, Joins: 2, StopAfter: 30, Mixed: true}},
		Ns:          []int{48},
		MaxPhase:    6,
	}
	want, err := RunMatrix(Config{Seed: 11, Trials: 2, Parallel: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMatrix(Config{Seed: 11, Trials: 2, Parallel: 8}, m)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("matrix differs across parallelism:\n-- serial --\n%s\n-- parallel --\n%s",
			want.Render(), got.Render())
	}
}

// TestScenarioChurnByzDeterminism: the combined churn + Byzantine path
// is a pure function of the seed and bit-identical across engine worker
// counts — metrics, roster state, and membership counts all agree.
func TestScenarioChurnByzDeterminism(t *testing.T) {
	sc := Scenario{
		Proto: "congest", Adversary: "spam", Placement: "clustered",
		N: 64, D: 8, ByzFrac: 0.1, MaxPhase: 6,
		Churn: ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 40, Mixed: true},
	}
	type snap struct {
		metrics  any
		rounds   int
		joined   int
		byzCount int
		frac     float64
	}
	runOnce := func(workers int) snap {
		t.Helper()
		out, err := RunScenario(sc, xrand.New(99), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return snap{out.Metrics, out.Rounds, out.Runner.Joined(), out.Roster.Count(), out.Roster.Fraction()}
	}
	serial := runOnce(1)
	if serial.joined == 0 || serial.byzCount == 0 {
		t.Fatalf("degenerate scenario: %+v", serial)
	}
	for _, w := range []int{4, 8} {
		if got := runOnce(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverges:\nserial: %+v\ngot:    %+v", w, serial, got)
		}
	}
}

// TestScenarioStaticMatchesHandWired: the scenario layer's static path
// is the hand-wired runner decomposed, not a reimplementation. The E4
// spam cell is wired here directly on sim.New with the split labels the
// pre-scenario E4 drew ("graph", "place", "spam" per vertex, "run"), and
// RunScenario must reproduce its outcomes, metrics and rounds exactly.
func TestScenarioStaticMatchesHandWired(t *testing.T) {
	const n, d, seed = 128, 8, 1234
	b := byzCount(n, 0.45)
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 12

	rng := xrand.New(seed)
	g, err := graph.HND(n, d, rng.Split("graph"))
	if err != nil {
		t.Fatal(err)
	}
	byz, err := byzantine.RandomPlacement(g, b, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(rng.Split("run").Uint64()))
	procs := make([]sim.Proc, n)
	for v := range procs {
		if byz[v] {
			procs[v] = byzantine.NewBeaconSpammer(params.Schedule, 6, false, rng.SplitN("spam", v))
		} else {
			procs[v] = counting.NewCongestProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	eng.SetStopCondition(func(int) bool {
		for v, p := range procs {
			if !byz[v] && !p.(counting.Estimator).Outcome().Decided {
				return false
			}
		}
		return true
	})
	rounds, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1))
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || eng.Metrics().Messages == 0 {
		t.Fatal("degenerate run")
	}

	out, err := RunScenario(Scenario{
		Proto: "congest", Adversary: "spam",
		N: n, D: d, Byz: b, MaxPhase: 12, StopFrac: 1,
	}, xrand.New(seed), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Outcomes, counting.Outcomes(procs)) {
		t.Error("outcomes diverge from the hand-wired run")
	}
	if !reflect.DeepEqual(out.Metrics, eng.Metrics()) {
		t.Errorf("metrics diverge: scenario %+v, hand-wired %+v", out.Metrics, eng.Metrics())
	}
	if out.Rounds != rounds {
		t.Errorf("rounds %d, hand-wired %d", out.Rounds, rounds)
	}
}
