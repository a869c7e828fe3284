package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzcount/internal/perf"
)

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list failed: %v", err)
	}
}

func TestExptRequiresID(t *testing.T) {
	if err := run([]string{"expt"}); err == nil {
		t.Fatal("expt without id accepted")
	}
}

func TestExptUnknownID(t *testing.T) {
	if err := run([]string{"expt", "E99", "-quick", "-trials", "1"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExptQuick(t *testing.T) {
	if err := run([]string{"expt", "E8", "-quick", "-trials", "1"}); err != nil {
		t.Fatalf("expt E8 failed: %v", err)
	}
}

func TestExptCSVFormat(t *testing.T) {
	if err := run([]string{"expt", "E8", "-quick", "-trials", "1", "-format", "csv"}); err != nil {
		t.Fatalf("csv format failed: %v", err)
	}
}

func TestRunProtocolCongest(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-d", "8", "-byz", "2"}); err != nil {
		t.Fatalf("run congest failed: %v", err)
	}
}

func TestRunProtocolLocalFakeAttack(t *testing.T) {
	if err := run([]string{"run", "-proto", "local", "-n", "64", "-d", "8", "-byz", "2", "-attack", "fake"}); err != nil {
		t.Fatalf("run local fake failed: %v", err)
	}
}

// runOutput runs the CLI with args and returns what it printed to
// stdout.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if runErr != nil {
		t.Fatalf("%v: %v", args, runErr)
	}
	return string(out)
}

// TestRunLocalFakeDelayParallelIdentical: the LOCAL fake-network cell
// under jittered virtual time prints the same report serially and on
// four engine workers.
func TestRunLocalFakeDelayParallelIdentical(t *testing.T) {
	args := []string{"run", "-proto", "local", "-attack", "fake", "-byz", "4", "-n", "128", "-delay", "uniform:1-4"}
	serial := runOutput(t, append(args, "-parallel", "1")...)
	if !strings.Contains(serial, "delay=uniform:1-4") {
		t.Fatalf("serial report is not a virtual-time run:\n%s", serial)
	}
	if par := runOutput(t, append(args, "-parallel", "4")...); par != serial {
		t.Errorf("-parallel 4 report differs from -parallel 1:\n--- serial\n%s--- parallel\n%s", serial, par)
	}
}

func TestRunProtocolGeometricSilent(t *testing.T) {
	if err := run([]string{"run", "-proto", "geometric", "-n", "64", "-byz", "1", "-attack", "silent"}); err != nil {
		t.Fatalf("run geometric failed: %v", err)
	}
}

func TestRunProtocolSupport(t *testing.T) {
	if err := run([]string{"run", "-proto", "support", "-n", "64", "-byz", "1"}); err != nil {
		t.Fatalf("run support failed: %v", err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run([]string{"run", "-proto", "bogus"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunUnknownAttackFailsFast(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "2", "-attack", "bogus"})
	if err == nil {
		t.Fatal("unknown attack accepted")
	}
	// The error must teach the valid vocabulary, not just reject.
	for _, want := range []string{"crash", "fake", "silent", "spam"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("attack error %q does not list %q", err, want)
		}
	}
}

func TestRunChurnStopWithoutChurnRejected(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-churn-stop", "50"})
	if err == nil {
		t.Fatal("-churn-stop without -churn accepted (it used to be silently ignored)")
	}
	if !strings.Contains(err.Error(), "-churn") {
		t.Errorf("error %q does not explain the missing flag", err)
	}
}

func TestRunUnknownPlacementFailsFast(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "2", "-placement", "bogus"})
	if err == nil {
		t.Fatal("unknown placement accepted")
	}
	if !strings.Contains(err.Error(), "clustered") {
		t.Errorf("placement error %q does not list the valid placements", err)
	}
}

// TestRunChurnWithByzantine: the cross-product the CLI used to reject
// ("churn runs are benign-only for now") runs end-to-end.
func TestRunChurnWithByzantine(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-d", "8",
		"-byz", "3", "-attack", "spam", "-churn", "2", "-churn-stop", "30", "-seed", "5"}); err != nil {
		t.Fatalf("churn+byzantine run failed: %v", err)
	}
}

func TestRunChurnCrashAttack(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "4",
		"-attack", "crash", "-churn", "1", "-churn-stop", "20", "-seed", "5"}); err != nil {
		t.Fatalf("churn+crash run failed: %v", err)
	}
}

// TestRunRejectsOutOfRangeScenario: values the scenario layer would
// otherwise read as a default (n=0, d=0) or silently ignore (a negative
// count, a churn stop in the past) fail instead of running a different
// scenario than the one the report prints.
func TestRunRejectsOutOfRangeScenario(t *testing.T) {
	for _, flags := range [][]string{
		{"-n", "0"},
		{"-n", "-4"},
		{"-d", "0"},
		{"-byz", "-1"},
		{"-churn", "2", "-churn-stop", "-5"},
		{"-churn", "-1"},
		{"-max-phase", "-3"},
		{"-gst", "-5"},
		{"-d", "1"}, // congest needs d >= 2
	} {
		args := append([]string{"run", "-proto", "congest", "-n", "64", "-max-phase", "4"}, flags...)
		if err := run(args); err == nil {
			t.Errorf("byzcount %s accepted", strings.Join(args, " "))
		}
	}
}

// TestMatrixRejectsOutOfRangeScenario is the matrix and sweep half: an
// out-of-range axis value is an error, not a silently skipped or
// silently benign cell.
func TestMatrixRejectsOutOfRangeScenario(t *testing.T) {
	for _, flags := range [][]string{
		{"-n", "0"},
		{"-n", "48,0"},
		{"-d", "0"},
		{"-adversary", "spam", "-byz-frac", "NaN"},
		{"-adversary", "spam", "-byz-frac", "-0.1"},
		{"-adversary", "spam", "-byz-frac", "1.5"},
		{"-stop-frac", "7"},
		{"-stop-frac", "NaN"},
		{"-max-phase", "-3"},
		{"-churn", "2", "-churn-stop", "-5"},
	} {
		for _, cmd := range []string{"matrix", "sweep"} {
			args := append([]string{cmd, "-n", "48", "-trials", "1"}, flags...)
			if cmd == "sweep" {
				args = append(args, "-out", filepath.Join(t.TempDir(), "sw"))
			}
			if err := run(args); err == nil {
				t.Errorf("byzcount %s accepted", strings.Join(args, " "))
			}
		}
	}
}

func TestMatrixRuns(t *testing.T) {
	if err := run([]string{"matrix", "-proto", "congest", "-adversary", "none,spam",
		"-byz-frac", "0,0.05", "-churn", "0,2", "-n", "48", "-trials", "1", "-max-phase", "6"}); err != nil {
		t.Fatalf("matrix failed: %v", err)
	}
}

func TestMatrixUnknownAxisValue(t *testing.T) {
	if err := run([]string{"matrix", "-adversary", "bogus", "-n", "48", "-trials", "1"}); err == nil {
		t.Fatal("unknown adversary axis value accepted")
	}
	if err := run([]string{"matrix", "-n", "48,oops"}); err == nil {
		t.Fatal("malformed -n list accepted")
	}
}

func TestMatrixAllIncompatibleIsError(t *testing.T) {
	// spam needs congest: a grid slice with only incompatible cells must
	// say so instead of printing an empty table.
	if err := run([]string{"matrix", "-proto", "geometric", "-adversary", "spam",
		"-byz-frac", "0.05", "-n", "48", "-trials", "1"}); err == nil {
		t.Fatal("empty (all-skipped) matrix accepted")
	}
}

func TestBenchWritesRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"bench", "-quick", "-filter", "engine/flood/serial", "-out", out}); err != nil {
		t.Fatalf("bench failed: %v", err)
	}
	rec, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 1 || rec.Results[0].Name != "engine/flood/serial/n=1024" {
		t.Errorf("unexpected results: %+v", rec.Results)
	}
	if rec.Results[0].NsPerOp <= 0 || rec.Results[0].Metrics["msgs_per_sec"] <= 0 {
		t.Errorf("degenerate measurement: %+v", rec.Results[0])
	}
	if !rec.Quick {
		t.Error("quick flag not recorded")
	}
}

func TestBenchRejectsEmptyFilter(t *testing.T) {
	if err := run([]string{"bench", "-quick", "-filter", "no-such-benchmark"}); err == nil {
		t.Fatal("filter matching nothing accepted")
	}
}

func TestGraphCmdKinds(t *testing.T) {
	for _, kind := range []string{"hnd", "regular", "smallworld", "ring", "torus", "dumbbell"} {
		if err := run([]string{"graph", "-kind", kind, "-n", "64", "-d", "4"}); err != nil {
			t.Fatalf("graph %s failed: %v", kind, err)
		}
	}
	if err := run([]string{"graph", "-kind", "bogus"}); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}

func TestGraphCmdWritesEdgeList(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.edges")
	if err := run([]string{"graph", "-kind", "ring", "-n", "16", "-out", out}); err != nil {
		t.Fatalf("graph -out failed: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "n 16\n") {
		t.Errorf("edge list header wrong: %q", string(data[:16]))
	}
	if strings.Count(string(data), "\n") != 17 { // header + 16 edges
		t.Errorf("edge list line count wrong:\n%s", data)
	}
}

// TestRunRejectsBadProbabilities: a NaN or out-of-range probability
// must fail the run up front, not hang it (geo:NaN never stops
// drawing) or run it silently fault-free (NaN and negative -drop).
func TestRunRejectsBadProbabilities(t *testing.T) {
	for _, flags := range [][]string{
		{"-delay", "geo:NaN@4"},
		{"-fault", "drop:NaN"},
		{"-drop", "NaN"},
		{"-drop", "-0.1"},
	} {
		args := append([]string{"run", "-proto", "congest", "-n", "64"}, flags...)
		if err := run(args); err == nil {
			t.Errorf("byzcount %s accepted", strings.Join(args, " "))
		}
	}
}
