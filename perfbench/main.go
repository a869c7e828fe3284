// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four named workloads (or all of them, from one process) for a
// fixed number of seconds, checks every output, and prints each metric
// by name with its unit and sample count; the last line of standard
// output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload sweep-vt-churn --seed 3 --seconds 12 --trace 0
//
// With --trace 1 it instead runs the workload once traced, beside an
// untraced pass, writes the spans to the work directory, prints the
// self-time summary, and reports the per-layer metrics. README.md
// records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"byzcount/internal/xrand"
)

// minPasses is the fewest passes one measured run makes, whatever
// --seconds says, so each reported median has at least three samples.
const minPasses = 3

// passBudget stops a run from starting a pass that would likely end
// past this many seconds, keeping the whole run inside its time limit.
const passBudget = 150 * time.Second

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]reportedMetric `json:"metrics"`
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name, or \"all\" for every workload in one process")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for sweep logs and traces")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have all", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, ", %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := env{seed: *seed, workers: runtime.NumCPU(), work: *work}

	total := result{Correct: true, Metrics: map[string]reportedMetric{}}
	for _, w := range selected {
		var res result
		var err error
		if *trace == 1 {
			res, err = traceWorkload(w, e)
		} else {
			res, err = measureWorkload(w, e, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		if len(selected) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !total.Correct {
		return 1
	}
	return 0
}

// measureWorkload repeats untraced passes for the run length (at least
// minPasses) and reports each end-to-end metric's interquartile mean
// over passes.
func measureWorkload(w workload, e env, length time.Duration) (result, error) {
	var passes []*pass
	start := time.Now()
	for {
		p, err := measured(e, w.run)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
		elapsed := time.Since(start)
		next := time.Duration(p.wall*1.5*float64(time.Second)) + elapsed
		if len(passes) >= minPasses && (elapsed >= length || next > passBudget) {
			break
		}
	}
	res := result{Metrics: map[string]reportedMetric{}}
	failed := map[string]bool{}
	var problems, reported []string
	series := map[string][]float64{}
	for i, p := range passes {
		if i > 0 {
			compareOutputs(p, passes[0], "first pass of this invocation")
		}
		for k := range p.failed {
			failed[fmt.Sprintf("%d/%s", i, k)] = true
		}
		problems = append(problems, p.problems...)
		if i == 0 {
			reported = p.reported // identical in every run, or the outputs differ
		}
		res.Attempted += p.cells
		series["wall_s"] = append(series["wall_s"], p.wall)
		series["setup_s"] = append(series["setup_s"], p.setup)
		series["cells_per_s"] = append(series["cells_per_s"], float64(p.cells)/p.wall)
		series["peak_rss_mb"] = append(series["peak_rss_mb"], p.rssMB)
		series["msgs_per_s"] = append(series["msgs_per_s"], p.msgs/p.wall)
	}
	res.Failed = min(len(failed), res.Attempted)
	res.Correct = res.Failed == 0
	for _, d := range endToEnd {
		res.Metrics[d.name] = reportedMetric{Value: iqMean(series[d.name]), Unit: d.unit}
	}

	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("seed %d, %d passes of %d cells, %d concurrent cells or engine workers\n",
		e.seed, len(passes), passes[0].cells, e.workers)
	fmt.Printf("%-14s %14s %14s %14s %14s %4s  %s\n", "metric", "iq_mean", "median", "p25", "p75", "n", "unit")
	row := func(name, unit string, xs []float64) {
		fmt.Printf("%-14s %14.6g %14.6g %14.6g %14.6g %4d  %s\n", name, iqMean(xs), median(xs),
			quantile(xs, 0.25), quantile(xs, 0.75), len(xs), unit)
	}
	for _, d := range endToEnd {
		row(d.name, d.unit, series[d.name])
	}
	for _, p := range passes {
		fmt.Printf("pass: wall %.4g s, cpu %.4g s, steal %.3f\n", p.wall, p.cpu, p.steal)
	}
	if passes[0].msgs > 0 {
		row("msgs_per_s", "msgs/s", series["msgs_per_s"])
	} else {
		fmt.Printf("%-14s %14s  (messages are not observable through expt.Run)\n", "msgs_per_s", "n/a")
	}
	fmt.Printf("%-14s %14.6g %14s %14s %14s %4d  fraction (%d of %d failed)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "", "", "", res.Attempted, res.Failed, res.Attempted)
	printProblems(problems, reported)
	return res, nil
}

// printProblems lists gate failures (FAIL) and failures of the claims
// the gate only reports (CLAIM), at most 20 of each.
func printProblems(problems, reported []string) {
	for _, list := range []struct {
		tag   string
		lines []string
	}{{"FAIL", problems}, {"CLAIM", reported}} {
		sort.Strings(list.lines)
		for i, p := range list.lines {
			if i == 20 {
				fmt.Printf("%s ... and %d more\n", list.tag, len(list.lines)-i)
				break
			}
			fmt.Println(list.tag, p)
		}
	}
}

var splitSink *xrand.Rand

// splitNNs times the per-slot stream derivation the engine makes for
// every node that draws randomness.
func splitNNs() float64 {
	const n = 20000
	root := xrand.New(1)
	t0 := time.Now()
	for v := 0; v < n; v++ {
		splitSink = root.SplitN("node", v)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// traceWorkload runs the workload's traced pass once, writes its spans,
// prints the self-time summary and reports every per-layer metric.
func traceWorkload(w workload, e env) (result, error) {
	lm := newLayerMetrics()
	tr := newTracer()
	lm["xrand.splitn_ns"] = splitNNs()
	p, err := w.traced(e, tr, lm)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(e.work, "trace-"+w.name+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return result{}, err
	}
	res := result{Attempted: p.cells, Failed: min(len(p.failed), p.cells), Metrics: map[string]reportedMetric{}}
	res.Correct = res.Failed == 0
	lm["gate.error_rate"] = float64(res.Failed) / float64(res.Attempted)
	lm["gate.claims_failed"] = float64(len(p.reported))

	fmt.Printf("workload %s (traced, seed %d): %d spans written to %s\n", w.name, e.seed, len(tr.spans), path)
	printSummary(os.Stdout, tr.summarize())
	fmt.Printf("\n%-28s %16s  %s\n", "per-layer metric", "value", "unit")
	for _, d := range perLayer {
		res.Metrics[d.name] = reportedMetric{Value: lm[d.name], Unit: d.unit}
		fmt.Printf("%-28s %16.6g  %s\n", d.name, lm[d.name], d.unit)
	}
	printProblems(p.problems, p.reported)
	return res, nil
}
