// Package bench is the go test face of the benchmark suite.
// BenchmarkSuite runs every perf.Suite workload — the engine, graph and
// protocol micro-benchmarks and the E1-E20 quick table regenerations
// (see DESIGN.md for the experiment index), exactly what `byzcount
// bench` records in BENCH.json — as one sub-benchmark per entry. The
// other benchmarks here cover what has no Suite entry: the sweep
// driver, the substrate generators, the implicit lattice and the LOCAL
// protocol.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or one Suite entry with e.g. -bench 'Suite/expt/E4$'.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"byzcount/internal/counting"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/perf"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// BenchmarkSuite runs each perf.Suite entry as a sub-benchmark named
// after it: Setup and the Warmup iterations run untimed, then fn(b.N)
// is timed. Entries whose iterations deliver messages also report
// msgs/op and Mmsgs/sec.
func BenchmarkSuite(b *testing.B) {
	for _, entry := range perf.Suite(perf.SuiteConfig{}) {
		b.Run(entry.Name, func(b *testing.B) {
			fn, err := entry.Setup()
			if err != nil {
				b.Fatal(err)
			}
			if entry.Warmup > 0 {
				if _, err := fn(entry.Warmup); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			tot, err := fn(b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if tot.Msgs > 0 {
				b.ReportMetric(float64(tot.Msgs)/float64(b.N), "msgs/op")
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(tot.Msgs)/secs/1e6, "Mmsgs/sec")
				}
			}
		})
	}
}

// Driver-level parallel benchmarks: the same table regenerated through
// the sweep driver with all (row, trial) cells running concurrently.
// Tables are byte-identical to the serial variants; only wall-clock
// changes. Trials=3 gives the driver enough cells per row to spread.

func benchExperimentParallel(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := expt.Config{Seed: 42, Trials: 3, Quick: true,
			Parallel: runtime.GOMAXPROCS(0)}
		if _, err := expt.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExperimentSerial3(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := expt.Config{Seed: 42, Trials: 3, Quick: true, Parallel: 1}
		if _, err := expt.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E1") }
func BenchmarkE1DriverParallel(b *testing.B) { benchExperimentParallel(b, "E1") }
func BenchmarkE3DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E3") }
func BenchmarkE3DriverParallel(b *testing.B) { benchExperimentParallel(b, "E3") }
func BenchmarkE9DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E9") }
func BenchmarkE9DriverParallel(b *testing.B) { benchExperimentParallel(b, "E9") }

// Substrate micro-benchmarks.

func BenchmarkHNDGeneration(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.HND(n, 8, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWattsStrogatzGeneration times the small-world generator. The
// seed (map-dedup) implementation measured 3.68 ms/op with 13651
// allocs/op at n=4096 on the 1-core CI-class box; the sorted-adjacency
// binary-search rewrite measured 1.27 ms/op with 4223 allocs/op on the
// same box (see CHANGES.md for the full before/after table).
func BenchmarkWattsStrogatzGeneration(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.WattsStrogatz(4096, 4, 0.2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimpleRegularGeneration times the Steger-Wormald generator
// (per-vertex sorted slab vs the seed's n hash maps per attempt).
func BenchmarkSimpleRegularGeneration(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.SimpleRegular(1024, 8, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphFinalize times the two-pass CSR finalize + sorted-dedup
// view in isolation (rebuilt from the edge log each iteration via Clone).
func BenchmarkGraphFinalize(b *testing.B) {
	g, err := graph.HND(4096, 8, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		c.Adj(0)
		c.SortedAdj(0)
	}
}

// BenchmarkAppendBall times the zero-alloc ball accessor the placement
// machinery and expansion sweeps lean on.
func BenchmarkAppendBall(b *testing.B) {
	g, err := graph.HND(4096, 8, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendBall(buf[:0], i%g.N(), 3)
	}
}

func BenchmarkBFS(b *testing.B) {
	rng := xrand.New(2)
	g, err := graph.HND(8192, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkTreeLikeCheck(b *testing.B) {
	rng := xrand.New(3)
	g, err := graph.HND(4096, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	r := graph.TreeLikeRadius(4096, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.IsLocallyTreeLike(i%g.N(), r, 8)
	}
}

// benchRoundThroughput measures steady-state round throughput on eng.
// The warm-up run grows every scratch buffer and inbox slab to its
// high-water mark before the timer starts, so allocs/op reports the
// steady state: 0.
func benchRoundThroughput(b *testing.B, eng *sim.Engine) {
	b.Helper()
	if _, err := eng.Run(64); err != nil {
		b.Fatal(err)
	}
	msgsBefore := eng.Metrics().Messages
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	msgs := eng.Metrics().Messages - msgsBefore
	if b.N > 0 {
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/round")
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(msgs)/elapsed/1e6, "Mmsgs/sec")
		}
	}
}

// benchLatticeRoundThroughput times the flood on an implicit C_n^4
// ring lattice (perf.NewLatticeFloodEngine — the scaling lane's cell
// workload, BENCH.json's scaling/flood/*): neighborhoods come from
// closed-form arithmetic resolved lazily into degree-hinted slabs, so
// this measures the engine's round loop without any materialized
// adjacency behind it. Allocs/op reports the steady state: 0.
func benchLatticeRoundThroughput(b *testing.B, workers int) {
	eng, err := perf.NewLatticeFloodEngine(4096, 4, workers)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkLatticeRoundThroughput(b *testing.B) {
	benchLatticeRoundThroughput(b, 1)
}

func BenchmarkLatticeRoundThroughputParallel8(b *testing.B) {
	benchLatticeRoundThroughput(b, 8)
}

// BenchmarkImplicitEngineConstruction times standing up a topology
// engine over an implicit lattice — the path the million-vertex lane
// takes. The budget is three degree-hinted slab carves plus the slot
// arrays; compare against BenchmarkGraphFinalize for the materialized
// counterpart's cost.
func BenchmarkImplicitEngineConstruction(b *testing.B) {
	lat, err := graph.NewRingLattice(4096, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.New(lat, sim.WithSeed(7))
	}
}

func BenchmarkLocalBenignRun(b *testing.B) {
	rng := xrand.New(7)
	g, err := graph.HND(128, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := counting.DefaultLocalParams(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.New(g, sim.WithSeed(uint64(i)))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = counting.NewLocalProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(params.MaxRounds + 8); err != nil {
			b.Fatal(err)
		}
	}
}
