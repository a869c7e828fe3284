package sim_test

// Allocation-regression guards for the steady-state round loop: after
// warm-up (scratch buffers and inbox slabs grown to their high-water
// marks, MessagesByRound within reserved capacity), the flood workload
// must execute rounds without a single heap allocation — serially and
// under the sharded parallel engine. CI runs these under the
// bench-smoke job; a failure means someone reintroduced a per-round or
// per-vertex allocation into the hot path.
//
// The workload is perf.NewFloodEngine — the exact configuration the
// BENCH.json trajectory records as engine/flood/*, so the gate guards
// what the record reports.

import (
	"testing"

	"byzcount/internal/dynamic"
	"byzcount/internal/perf"
	"byzcount/internal/sim"
)

// warmFloodEngine returns the 1024-node flood engine warmed past the
// next MessagesByRound capacity boundary: 1300 rounds leave the series
// reserved through round 2048, so the ≤ 400 rounds the tests run next
// append strictly within capacity and the measurements see no
// amortized regrowth, only the round loop itself.
func warmFloodEngine(t *testing.T, workers int) *sim.Engine {
	t.Helper()
	eng, err := perf.NewFloodEngine(1024, 8, workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(1300); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSteadyStateAllocsSerial: a warm serial round allocates nothing,
// strictly.
func TestSteadyStateAllocsSerial(t *testing.T) {
	eng := warmFloodEngine(t, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// warmChurnFloodEngine returns the 1024-node churn flood runner (two
// leaves and two joins between every pair of rounds, forever) warmed the
// same way as warmFloodEngine: past the MessagesByRound capacity
// boundary and with every recycled slot buffer at its high-water mark.
func warmChurnFloodEngine(t *testing.T, workers int) *dynamic.Runner {
	t.Helper()
	run, err := perf.NewChurnFloodEngine(1024, 8, workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(1300); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSteadyStateAllocsChurnSerial: a warm serial round under continuous
// membership churn — cycle repair, slot recycling, epoch-driven
// neighborhood re-resolution, per-event stream re-derivation — allocates
// nothing, strictly. The dynamic path is held to the same budget as the
// static engine.
func TestSteadyStateAllocsChurnSerial(t *testing.T) {
	run := warmChurnFloodEngine(t, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := run.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state churn round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// TestSteadyStateAllocsChurnParallel: the churn workload under the
// sharded engine must not allocate per round beyond the constant per-Run
// pool startup, pinned the same way as the static parallel guard.
func TestSteadyStateAllocsChurnParallel(t *testing.T) {
	run := warmChurnFloodEngine(t, 8)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := run.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(120)
	if delta := long - short; delta != 0 {
		t.Errorf("parallel churn rounds allocate: %d rounds cost %.0f allocs, %d rounds cost %.0f (delta %.0f, want 0)",
			20, short, 120, long, delta)
	}
	if short >= 20 {
		t.Errorf("pool startup costs %.0f allocs, which is >= 1 per round over 20 rounds", short)
	}
}

// warmChurnByzEngine returns the 1024-node churn-byz runner (two leaves
// and two joins per round, a roster maintaining a 1/16 Byzantine spam
// fraction) warmed like the other steady-state engines.
func warmChurnByzEngine(t *testing.T, workers int) *dynamic.Runner {
	t.Helper()
	run, err := perf.NewChurnByzEngine(1024, 8, workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(1300); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSteadyStateAllocsChurnByzSerial: the combined churn + adversary
// path — membership turnover, roster re-evaluation (the joiner
// allegiance draw included), cycle repair, spam traffic — allocates
// nothing per warm serial round, strictly. This is the budget E16-E18
// and `run -byz -churn` stand on.
func TestSteadyStateAllocsChurnByzSerial(t *testing.T) {
	run := warmChurnByzEngine(t, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := run.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state churn+byz round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// TestSteadyStateAllocsChurnByzParallel: the same budget under the
// sharded engine, modulo the constant per-Run pool startup.
func TestSteadyStateAllocsChurnByzParallel(t *testing.T) {
	run := warmChurnByzEngine(t, 8)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := run.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(120)
	if delta := long - short; delta != 0 {
		t.Errorf("parallel churn+byz rounds allocate: %d rounds cost %.0f allocs, %d rounds cost %.0f (delta %.0f, want 0)",
			20, short, 120, long, delta)
	}
	if short >= 20 {
		t.Errorf("pool startup costs %.0f allocs, which is >= 1 per round over 20 rounds", short)
	}
}

// warmVTFloodEngine returns the flood engine on the virtual-time
// scheduler under uniform:1-4 jitter, warmed like warmFloodEngine.
// Jitter spreads each round's traffic over 4 ring slots, so delivery
// rows would otherwise converge to their high-water marks only
// asymptotically; NewVTFloodEngine reserves the in-degree x max-delay
// arrival bound up front (sim.Engine.ReserveInbox), which makes the
// strict zero-allocation budget below attainable at the same warm-up
// the synchronous gates use.
func warmVTFloodEngine(t *testing.T, workers int) *sim.Engine {
	t.Helper()
	eng, err := perf.NewVTFloodEngine(1024, 8, workers, "uniform:1-4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(1300); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSteadyStateAllocsVTSerial: the event-queue gate — a warm serial
// virtual-time round (ring delivery, per-sender latency draws included)
// allocates nothing, strictly. Same budget as unit latency.
func TestSteadyStateAllocsVTSerial(t *testing.T) {
	eng := warmVTFloodEngine(t, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state virtual-time round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// TestSteadyStateAllocsVTParallel: the same budget under the sharded
// engine — per-(worker, shard, ring-slot) buckets at high water, merges
// included — modulo the constant per-Run pool startup.
func TestSteadyStateAllocsVTParallel(t *testing.T) {
	eng := warmVTFloodEngine(t, 8)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := eng.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(120)
	if delta := long - short; delta != 0 {
		t.Errorf("parallel virtual-time rounds allocate: %d rounds cost %.0f allocs, %d rounds cost %.0f (delta %.0f, want 0)",
			20, short, 120, long, delta)
	}
	if short >= 20 {
		t.Errorf("pool startup costs %.0f allocs, which is >= 1 per round over 20 rounds", short)
	}
}

// TestSteadyStateAllocsVTSparse: the occupancy-lane gate — the sparse
// pulse/relay workload (TickDriven relays, serial engine, occupancy
// rows sorted and cleared per tick) allocates nothing per warm round,
// strictly. Guards what BENCH.json records as engine/vt-flood/sparse/*.
func TestSteadyStateAllocsVTSparse(t *testing.T) {
	eng, err := perf.NewVTSparseEngine(1024, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(1300); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state sparse round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// TestSteadyStateAllocsVTSparseParallel: the parallel occupancy-lane
// gate — the sparse pulse/relay workload under the sharded engine at
// workers 8 (occupancy folded in per destination shard during merge,
// per-shard union walks, per-worker halt counters) must not allocate
// per round beyond the constant per-Run pool startup, pinned the same
// way as the other parallel guards: two Run calls of different lengths
// must cost identical allocations, i.e. a steady-state sparse parallel
// tick allocates exactly zero. Guards what BENCH.json records as
// engine/vt-flood/sparse/parallel=8.
func TestSteadyStateAllocsVTSparseParallel(t *testing.T) {
	eng, err := perf.NewVTSparseEngine(1024, 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(1300); err != nil {
		t.Fatal(err)
	}
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := eng.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(120)
	if delta := long - short; delta != 0 {
		t.Errorf("parallel sparse rounds allocate: %d rounds cost %.0f allocs, %d rounds cost %.0f (delta %.0f, want 0)",
			20, short, 120, long, delta)
	}
	if short >= 20 {
		t.Errorf("pool startup costs %.0f allocs, which is >= 1 per round over 20 rounds", short)
	}
}

// TestSteadyStateAllocsVTSkip: the fast-forward gate — the token
// workload (one message in flight, most ticks skipped in O(1)) must
// keep skipped and executed ticks both allocation-free. MessagesByRound
// grows one entry per tick even when skipping, so the warm-up leaves
// the series reserved past the measured rounds exactly like the other
// gates — and it runs a full lap of the ring (one hop per ~2.5 ticks,
// 1023 relays), because each relay derives its per-sender delay stream
// lazily on its first send and the steady state only starts once every
// vertex has hosted the token. Guards what BENCH.json records as
// engine/vt-skip/*.
func TestSteadyStateAllocsVTSkip(t *testing.T) {
	eng, err := perf.NewVTSkipEngine(1024, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(3000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial steady-state tick-skip round allocates: %.1f allocs/round, want 0", allocs)
	}
}

// TestSteadyStateAllocsParallel: with SetParallelism(8), allocations
// must not scale with the number of rounds executed. Each Run call pays
// a constant pool-startup cost (one goroutine spawn per worker); the
// rounds themselves must be allocation-free, which the test pins by
// running two Run calls of different lengths and requiring identical
// allocation counts.
func TestSteadyStateAllocsParallel(t *testing.T) {
	eng := warmFloodEngine(t, 8)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := eng.Run(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(20)
	long := measure(120)
	if delta := long - short; delta != 0 {
		t.Errorf("parallel rounds allocate: %d rounds cost %.0f allocs, %d rounds cost %.0f (delta %.0f, want 0)",
			20, short, 120, long, delta)
	}
	// And the startup cost itself stays bounded: a handful of goroutine
	// spawns, nowhere near one allocation per round.
	if short >= 20 {
		t.Errorf("pool startup costs %.0f allocs, which is >= 1 per round over 20 rounds", short)
	}
}
