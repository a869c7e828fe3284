package main

// Per-layer metrics of the traced run. Every metric is reported on
// every workload; a layer a workload does not run (or whose internals
// expt.Run hides) reads 0. README.md lists which end-to-end metric each
// one should move, and on which workload.

import (
	"runtime"
	"runtime/debug"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for i := 1; i <= 20; i++ {
		defs = append(defs, metricDef{"expt.quick.E" + strconv.Itoa(i) + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"expt.cell_p50_ms", "ms"},
		metricDef{"expt.cell_p90_ms", "ms"},
		metricDef{"expt.cell_max_ms", "ms"},
		metricDef{"expt.cells", "count"},
		metricDef{"expt.idle_frac", "fraction"},
		metricDef{"expt.subcache_hit_ratio", "fraction"},
		metricDef{"graph.build_ms", "ms"},
		metricDef{"graph.build_frac", "fraction"},
		metricDef{"byzantine.place_ms", "ms"},
		metricDef{"byzantine.step_ns", "ns"},
		metricDef{"byzantine.step_frac", "fraction"},
		metricDef{"counting.congest.step_ns", "ns"},
		metricDef{"counting.baseline.step_ns", "ns"},
		metricDef{"counting.step_frac", "fraction"},
		metricDef{"counting.outcome_ms", "ms"},
		metricDef{"sim.construct_ms", "ms"},
		metricDef{"sim.construct_frac", "fraction"},
		metricDef{"sim.engine_self_frac", "fraction"},
		metricDef{"sim.round_p50_us", "us"},
		metricDef{"sim.round_p99_us", "us"},
		metricDef{"sim.quiet_round_frac", "fraction"},
		metricDef{"sim.ns_per_msg", "ns"},
		metricDef{"sim.drop_frac", "fraction"},
		metricDef{"sim.ticks_skipped_frac", "fraction"},
		metricDef{"sim.tickdriven_cells", "count"},
		metricDef{"sim.untimed_procs", "count"},
		metricDef{"sim.worker_speedup", "x"},
		metricDef{"dynamic.construct_ms", "ms"},
		metricDef{"dynamic.round_p50_us", "us"},
		metricDef{"sweep.overhead_frac", "fraction"},
		metricDef{"sweep.wal_bytes_per_cell", "bytes"},
		metricDef{"sweep.append_us", "us"},
		metricDef{"sweep.sync_ms", "ms"},
		metricDef{"xrand.splitn_ns", "ns"},
		metricDef{"runtime.bytes_per_vertex", "bytes"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"runtime.mallocs_per_msg", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"report.render_ms", "ms"},
		metricDef{"trace.overhead_frac", "fraction"},
		metricDef{"msgs_per_s", "msgs/s"},
		metricDef{"gate.error_rate", "fraction"},
		metricDef{"gate.claims_failed", "count"},
	)
}()

// layerMetrics holds the traced run's per-layer values by name.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	lm := layerMetrics{}
	for _, d := range perLayer {
		lm[d.name] = 0
	}
	return lm
}

// settle collects the heap and restarts the resident high-water mark,
// so the next pass starts from the same state and reports its own peak.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// untraced records what the untraced pass measured: runtime counters,
// the substrate cache and message throughput.
func (lm layerMetrics) untraced(p *pass) {
	lm["runtime.alloc_mb"] = p.rt.allocMB
	lm["runtime.mallocs"] = p.rt.mallocs
	lm["runtime.mallocs_per_msg"] = frac(p.rt.mallocs, p.msgs) // 0 where messages are not observable
	lm["runtime.gc_cycles"] = p.rt.gcCycles
	lm["runtime.gc_cpu_frac"] = p.rt.gcCPUFrac
	if n := p.subHits + p.subMisses; n > 0 {
		lm["expt.subcache_hit_ratio"] = float64(p.subHits) / float64(n)
	}
	if p.wall > 0 {
		lm["msgs_per_s"] = p.msgs / p.wall
	}
}

func mean(xs []float64) float64 { return frac(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// cells derives the cell-level metrics from the traced cells' spans and
// step counters. wall is the traced pass's wall time and workers the
// number of concurrent cells.
func (lm layerMetrics) cells(tr *tracer, cells []*cellStats, wall float64, workers int) {
	churn := map[string]bool{}
	byz := map[string]bool{}
	for _, st := range cells {
		churn[st.key] = st.sc.Churn.Active() || st.sc.Dynamic
		n, _ := byzBudget(st.sc)
		byz[st.key] = n > 0
	}
	by := map[string][]float64{} // span name -> durations in ns
	var churnRounds, churnBuild []float64
	for _, s := range tr.spans {
		d := float64(s.dur())
		switch {
		case s.Name == "byzantine.place" && !byz[s.Cell]:
			continue
		case s.Name == "round" && churn[s.Cell]:
			churnRounds = append(churnRounds, d)
		case (s.Name == "dynamic.network" || s.Name == "sim.construct") && churn[s.Cell]:
			churnBuild = append(churnBuild, d)
		}
		by[s.Name] = append(by[s.Name], d)
	}
	cellNs := by["cell"]
	lm["expt.cells"] = float64(len(cellNs))
	lm["expt.cell_p50_ms"] = quantile(cellNs, 0.5) / 1e6
	lm["expt.cell_p90_ms"] = quantile(cellNs, 0.9) / 1e6
	lm["expt.cell_max_ms"] = quantile(cellNs, 1) / 1e6
	lm["expt.idle_frac"] = 1 - frac(sum(cellNs)/1e9, wall*float64(workers))
	lm["graph.build_ms"] = mean(by["graph.build"]) / 1e6
	lm["graph.build_frac"] = frac(sum(by["graph.build"]), sum(cellNs))
	lm["byzantine.place_ms"] = mean(by["byzantine.place"]) / 1e6
	lm["counting.outcome_ms"] = mean(by["counting.outcomes"]) / 1e6
	lm["sim.construct_ms"] = mean(by["sim.construct"]) / 1e6
	lm["sim.construct_frac"] = frac(sum(by["sim.construct"]), sum(cellNs))
	lm["sim.round_p50_us"] = quantile(by["round"], 0.5) / 1e3
	lm["sim.round_p99_us"] = quantile(by["round"], 0.99) / 1e3
	lm["dynamic.round_p50_us"] = quantile(churnRounds, 0.5) / 1e3
	if n := len(by["dynamic.network"]); n > 0 {
		lm["dynamic.construct_ms"] = sum(churnBuild) / float64(n) / 1e6
	}
	lm["sweep.append_us"] = mean(by["sweep.append"]) / 1e3

	var stepNs, steps [numKinds]float64
	var engineNs, runNs, msgs, dropped, rounds, quiet, skipped, tick, untimed float64
	for _, st := range cells {
		for k := range stepNs {
			stepNs[k] += float64(st.stepNs[k])
			steps[k] += float64(st.steps[k])
		}
		engineNs += float64(st.runNs) * float64(st.workers)
		runNs += float64(st.runNs)
		m := st.metrics
		msgs += float64(m.Messages)
		dropped += float64(m.Dropped)
		rounds += float64(m.Rounds)
		skipped += float64(m.TicksSkipped)
		for _, c := range m.MessagesByRound {
			if c < int64(st.sc.N) {
				quiet++
			}
		}
		if st.tickDriven {
			tick++
		}
		untimed += float64(st.unwrapped)
	}
	allSteps := stepNs[kindCongest] + stepNs[kindBaseline] + stepNs[kindByz]
	lm["byzantine.step_ns"] = frac(stepNs[kindByz], steps[kindByz])
	lm["byzantine.step_frac"] = frac(stepNs[kindByz], engineNs)
	lm["counting.congest.step_ns"] = frac(stepNs[kindCongest], steps[kindCongest])
	lm["counting.baseline.step_ns"] = frac(stepNs[kindBaseline], steps[kindBaseline])
	lm["counting.step_frac"] = frac(stepNs[kindCongest]+stepNs[kindBaseline], engineNs)
	lm["sim.engine_self_frac"] = 1 - frac(allSteps, engineNs)
	lm["sim.quiet_round_frac"] = frac(quiet, rounds)
	lm["sim.ns_per_msg"] = frac(runNs, msgs)
	lm["sim.drop_frac"] = frac(dropped, msgs+dropped)
	lm["sim.ticks_skipped_frac"] = frac(skipped, rounds)
	lm["sim.tickdriven_cells"] = tick
	lm["sim.untimed_procs"] = untimed
}
