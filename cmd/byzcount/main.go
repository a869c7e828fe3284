// Command byzcount runs the Byzantine counting protocols and the
// reproduction experiments from the command line.
//
// Usage:
//
//	byzcount list
//	byzcount expt <id> [-seed N] [-trials N] [-quick]
//	byzcount all [-seed N] [-trials N] [-quick]
//	byzcount run [-proto congest|local|geometric|support|kmv|walk|tree]
//	             [-n N] [-d D] [-byz B] [-attack spam|silent|fake|crash]
//	             [-placement random|clustered|spread] [-seed N]
//	             [-churn K [-churn-stop R]]
//	byzcount matrix [-proto P,P] [-substrate S,S] [-adversary A,A]
//	             [-placement P,P] [-n N,N] [-byz-frac F,F] [-churn K,K]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"byzcount/internal/counting"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/perf"
	"byzcount/internal/report"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "byzcount:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		fmt.Println("experiments (see DESIGN.md for the claim each reproduces):")
		for _, id := range expt.IDs() {
			fmt.Println(" ", id)
		}
		fmt.Println("scenario axes (byzcount matrix / run):")
		fmt.Println("  protocols: ", strings.Join(expt.ProtocolNames(), " "))
		fmt.Println("  substrates:", strings.Join(expt.SubstrateNames(), " "))
		fmt.Println("  adversaries:", strings.Join(expt.AdversaryNames(), " "))
		fmt.Println("  placements:", strings.Join(expt.PlacementNames(), " "))
		return nil
	case "expt":
		return exptCmd(args[1:], false)
	case "all":
		return exptCmd(args[1:], true)
	case "run":
		return runCmd(args[1:])
	case "matrix":
		return matrixCmd(args[1:])
	case "sweep":
		return sweepCmd(args[1:])
	case "bench":
		return benchCmd(args[1:])
	case "graph":
		return graphCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  byzcount list                         list experiment IDs and scenario axes
  byzcount expt <id> [flags]            run one experiment and print its table
  byzcount all [flags]                  run every experiment
  byzcount run [flags]                  run a single scenario instance
  byzcount matrix [flags]               run a slice of the scenario grid
  byzcount sweep [flags]                durable matrix: crash-recoverable, resumable
  byzcount bench [flags]                run the perf suite and write BENCH.json
  byzcount graph [flags]                generate a substrate and print its statistics
flags for expt/all: -seed N  -trials N  -quick  -parallel N  -subcache=false
flags for run:      -proto congest|local|geometric|support|kmv|walk|tree  -n N  -d D
                    -substrate S (see list; implicit families scale to n=10^6)
                    -byz B  -attack spam|silent|fake|crash
                    -placement random|clustered|spread  -seed N  -parallel N
                    -max-phase P  -churn K  -churn-stop R (churn requires -substrate hnd)
                    -delay SPEC (unit|uniform:MIN-MAX|geo:P@CAP|region:G/NEAR/FAR|gst:R/SPEC)
                    -gst R (jitter before round R, synchronous after)
                    -drop P  -fault SPEC (drop:P|partition:G@FROM[-HEAL])
(-parallel defaults to GOMAXPROCS; outputs are identical for every value)
(-churn K runs on the dynamically maintained H(n,d): K leaves + K joins
 between every pair of rounds, quiescing at round R; with -byz B the
 roster maintains the Byzantine fraction B/n as the membership churns)
(-delay/-fault shape the delivery ring: per-message latency and fault
 verdicts are drawn from per-sender streams, so outputs stay identical
 for every -parallel value; empty = unit latency and no faults, the
 paper's synchronous rounds)
flags for matrix:   comma-separated axis lists -proto -substrate -adversary
                    -placement -n -byz-frac -churn -delay -fault,
                    plus -churn-stop R  -d D
                    -max-phase P  -stop-frac F  -seed N  -trials N  -parallel N
                    -format table|csv  -subcache=false
flags for sweep:    the matrix grid flags, plus exactly one of
                    -out DIR (fresh sweep) | -resume DIR (continue one)
                    -retries N  -cell-timeout D  -progress
                    (SIGINT/SIGTERM drain in-flight cells and leave DIR
                     resumable; resumed tables are byte-identical to an
                     uninterrupted run; panicking cells are quarantined
                     with their sub-seed and the rest of the grid completes,
                     exit status nonzero)
flags for bench:    -quick  -out FILE  -filter SUBSTR  -parallel N
                    -scaling (n x workers sweep on the implicit lattice)
                    -require-clean (refuse a dirty-tree snapshot)
                    -diff [-tolerance F] OLD.json NEW.json (exit 1 past tolerance)
                    -tolerance-override name=F|prefix*=F (repeatable, for -diff)
flags for graph:    -kind hnd|regular|smallworld|ring|torus|dumbbell  -n N  -d D
                    -seed N  -out FILE`)
}

func exptCmd(args []string, all bool) error {
	fs := flag.NewFlagSet("expt", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "root random seed")
	trials := fs.Int("trials", 3, "trials per row")
	quick := fs.Bool("quick", false, "shrunken sweeps")
	format := fs.String("format", "table", "output format: table|csv")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent (row, trial) cells; tables are identical for every value")
	subcache := fs.Bool("subcache", true,
		"reuse identically drawn substrates across cells (tables are identical either way)")
	var id string
	rest := args
	if !all {
		if len(args) == 0 {
			return fmt.Errorf("expt requires an experiment id")
		}
		id = args[0]
		rest = args[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	expt.SetSubstrateCache(*subcache)
	cfg := expt.Config{Seed: *seed, Trials: *trials, Quick: *quick, Parallel: *parallel}
	ids := []string{id}
	if all {
		ids = expt.IDs()
	}
	for _, x := range ids {
		tbl, err := expt.Run(x, cfg)
		if err != nil {
			return err
		}
		if *format == "csv" {
			fmt.Printf("# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.Render())
		}
	}
	return nil
}

// benchCmd runs the standard perf suite (engine micro-benchmarks plus
// the E1-E18 quick regenerations), prints one line per benchmark, and
// records the machine-readable trajectory in BENCH.json — the artifact
// CI archives on every run so performance changes leave a trace.
func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrunken iteration budget (CI smoke)")
	out := fs.String("out", "BENCH.json", "write the JSON record here (empty disables)")
	filter := fs.String("filter", "", "only run benchmarks whose name contains this substring")
	parallel := fs.Int("parallel", 8, "worker count for the parallel engine benchmark")
	scaling := fs.Bool("scaling", false,
		"run the multi-core scaling sweep (implicit lattice, n x workers) instead of the standard suite")
	diff := fs.Bool("diff", false,
		"compare two records instead of benchmarking: bench -diff [-tolerance F] old.json new.json")
	tolerance := fs.Float64("tolerance", 0.25,
		"allowed relative ns/op slowdown per workload for -diff (0.25 = 1.25x)")
	overrides := map[string]float64{}
	fs.Func("tolerance-override",
		"per-workload -diff tolerance as name=tol or prefix*=tol (repeatable; exact beats prefix, longest prefix wins)",
		func(spec string) error { return perf.ParseOverride(overrides, spec) })
	requireClean := fs.Bool("require-clean", false,
		"refuse to snapshot from a dirty working tree (CI sets this: a dirty record's git_sha lies)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		return benchDiff(fs.Args(), *tolerance, overrides)
	}
	suite := perf.Suite(perf.SuiteConfig{Quick: *quick, Parallel: *parallel, Filter: *filter})
	if *scaling {
		suite = perf.ScalingSuite(perf.ScalingConfig{Quick: *quick, Filter: *filter})
	}
	if len(suite) == 0 {
		return fmt.Errorf("no benchmarks match filter %q", *filter)
	}
	rec := perf.NewRecord(*quick)
	if rec.GitDirty {
		if *requireClean {
			return fmt.Errorf("working tree is dirty and -require-clean is set; commit or stash before snapshotting")
		}
		fmt.Fprintln(os.Stderr, "bench: WARNING: working tree is dirty — the record's git_sha does not identify"+
			" the measured code (git_dirty=true will be recorded)")
	}
	start := time.Now()
	fmt.Printf("%-40s %14s %12s %12s %14s %14s\n",
		"benchmark", "ns/op", "B/op", "allocs/op", "msgs/s", "rounds/s")
	for _, b := range suite {
		res, err := b.Measure()
		if err != nil {
			return err
		}
		fmt.Printf("%-40s %14.0f %12.0f %12.1f %14s %14s\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp,
			rate(res.Metrics, "msgs_per_sec"), rate(res.Metrics, "rounds_per_sec"))
		rec.Results = append(rec.Results, res)
	}
	rec.WallSecs = time.Since(start).Seconds()
	fmt.Printf("done: %d benchmarks in %.1fs (git %s, GOMAXPROCS %d)\n",
		len(rec.Results), rec.WallSecs, rec.GitSHA, rec.GOMAXPROCS)
	if *out != "" {
		if err := rec.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("record written to %s\n", *out)
	}
	return nil
}

// benchDiff compares two BENCH.json records and fails loudly when any
// common workload slowed past the tolerance — the enforcement half of
// the committed-snapshot trajectory.
func benchDiff(paths []string, tolerance float64, overrides map[string]float64) error {
	if len(paths) != 2 {
		return fmt.Errorf("bench -diff takes exactly two records: bench -diff old.json new.json")
	}
	rep, err := perf.DiffOverrides(paths[0], paths[1], tolerance, overrides)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if regs := rep.Regressions(); len(regs) > 0 {
		return fmt.Errorf("%d workload(s) regressed past tolerance (worst: %s at %.2fx, tol %.0f%%)",
			len(regs), regs[0].Name, regs[0].Ratio, rep.ToleranceFor(regs[0].Name)*100)
	}
	fmt.Printf("no regressions past %.0f%% tolerance (%d common, %d added, %d removed)\n",
		tolerance*100, len(rep.Common), len(rep.Added), len(rep.Removed))
	return nil
}

// rate formats an optional metric for the bench table.
func rate(metrics map[string]float64, key string) string {
	v, ok := metrics[key]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3g", v)
}

func graphCmd(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	kind := fs.String("kind", "hnd", "hnd|regular|smallworld|ring|torus|dumbbell")
	n := fs.Int("n", 256, "network size (per side for dumbbell)")
	d := fs.Int("d", 8, "degree parameter")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "write edge list to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := xrand.New(*seed)
	var g *graph.Graph
	var err error
	switch *kind {
	case "hnd":
		g, err = graph.HND(*n, *d, rng)
	case "regular":
		g, err = graph.SimpleRegular(*n, *d, 100, rng)
	case "smallworld":
		g, err = graph.WattsStrogatz(*n, max(*d/2, 1), 0.1, rng)
	case "ring":
		g, err = graph.Ring(*n)
	case "torus":
		side := 1
		for side*side < *n {
			side++
		}
		g, err = graph.Torus(side, side)
	case "dumbbell":
		g, _, err = graph.Dumbbell(*n, *n, *d, rng)
	default:
		return fmt.Errorf("unknown graph kind %q", *kind)
	}
	if err != nil {
		return err
	}
	fmt.Printf("kind=%s n=%d m=%d min_deg=%d max_deg=%d simple=%v connected=%v\n",
		*kind, g.N(), g.M(), g.MinDegree(), g.MaxDegree(), g.IsSimple(), g.IsConnected())
	if g.IsConnected() {
		if diam, err := g.ApproxDiameter(0); err == nil {
			fmt.Printf("approx_diameter=%d\n", diam)
		}
	}
	fmt.Printf("vertex_expansion_estimate=%.4f (BFS sweep upper bound)\n",
		g.EstimateVertexExpansion(8, rng.Split("sweep")))
	fmt.Printf("cheeger_spectral_lower_bound=%.4f\n",
		g.CheegerBoundSpectral(100, rng.Split("spectral")))
	r := graph.TreeLikeRadius(g.N(), *d)
	fmt.Printf("treelike_fraction(r=%d)=%.4f\n", r, g.TreeLikeFraction(r, *d))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteEdgeList(f); err != nil {
			return err
		}
		fmt.Printf("edge list written to %s\n", *out)
	}
	return nil
}

// attackAdversaries maps a CLI -attack value to the scenario-registry
// adversary for each protocol ("" = every protocol). The names here are
// the CLI's stable vocabulary; the registry holds the implementations.
var attackAdversaries = map[string]map[string]string{
	"spam": {
		"congest":   "spam",
		"geometric": "geo-max",
		"support":   "support-min",
		"kmv":       "kmv-poison",
		"tree":      "tree-inflate",
		"":          "silent", // protocols with no value-faking attack
	},
	"silent": {"": "silent"},
	"fake":   {"": "fake"},
	"crash":  {"": "crash"},
}

// attackNames returns the valid -attack values, sorted.
func attackNames() []string {
	out := make([]string, 0, len(attackAdversaries))
	for k := range attackAdversaries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resolveAttack validates an -attack value and resolves it to the
// adversary axis name for the given protocol.
func resolveAttack(attack, proto string) (string, error) {
	byProto, ok := attackAdversaries[attack]
	if !ok {
		return "", fmt.Errorf("unknown attack %q (valid: %s)", attack, strings.Join(attackNames(), "|"))
	}
	if adv, ok := byProto[proto]; ok {
		return adv, nil
	}
	return byProto[""], nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	proto := fs.String("proto", "congest", "protocol: congest|local|geometric|support|kmv|walk|tree")
	substrate := fs.String("substrate", "hnd",
		"substrate family (see `byzcount list`; *-implicit and lattice families never materialize adjacency)")
	n := fs.Int("n", 256, "network size")
	d := fs.Int("d", 8, "degree (even for H(n,d))")
	byzN := fs.Int("byz", 0, "number of Byzantine nodes (a fraction byz/n is maintained under churn)")
	attack := fs.String("attack", "spam", "attack: spam|silent|fake|crash")
	placement := fs.String("placement", "random", "placement: random|clustered|spread")
	maxPhase := fs.Int("max-phase", 12,
		"congest phase cap; low values bound the round count at n=10^6 scale")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"engine step-shard workers; runs are identical for every value")
	churn := fs.Int("churn", 0,
		"leaves and joins applied between every pair of rounds (0 = static network)")
	churnStop := fs.Int("churn-stop", 0,
		"disable churn from this round on (0 = churn for the whole run)")
	delay := fs.String("delay", "",
		"delivery-latency model spec (unit|uniform:MIN-MAX|geo:P@CAP|region:G/NEAR/FAR|gst:R/SPEC); empty = unit latency")
	gst := fs.Int("gst", 0,
		"global stabilization round: jitter (-delay, default uniform:1-4) before round R, synchronous after")
	drop := fs.Float64("drop", 0, "iid per-message drop probability (shorthand for -fault drop:P)")
	fault := fs.String("fault", "",
		"message-fault model spec (drop:P|partition:G@FROM[-HEAL]); overrides -drop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := atLeastOne("-n", *n); err != nil {
		return err
	}
	if err := atLeastOne("-d", *d); err != nil {
		return err
	}
	if *gst < 0 {
		return fmt.Errorf("-gst %d: must be at least 0 (0 = no stabilization round)", *gst)
	}
	if *churnStop > 0 && *churn == 0 {
		return fmt.Errorf("-churn-stop %d without -churn K has no effect; pass -churn or drop -churn-stop", *churnStop)
	}
	delaySpec := *delay
	if *gst > 0 {
		inner := delaySpec
		if inner == "" {
			inner = "uniform:1-4"
		}
		delaySpec = fmt.Sprintf("gst:%d/%s", *gst, inner)
	}
	faultSpec := *fault
	if faultSpec == "" && *drop != 0 { // NaN and negatives reach the parser, which rejects them
		faultSpec = fmt.Sprintf("drop:%g", *drop)
	}
	adversary, err := resolveAttack(*attack, *proto)
	if err != nil {
		return err
	}
	sc := expt.Scenario{
		Proto:     *proto,
		Substrate: *substrate,
		Adversary: adversary,
		Placement: *placement,
		N:         *n,
		D:         *d,
		Byz:       *byzN,
		MaxPhase:  *maxPhase,
		StopFrac:  1,
		Churn:     expt.ChurnProfile{Leaves: *churn, Joins: *churn, StopAfter: *churnStop, Mixed: true},
		Delay:     delaySpec,
		Fault:     faultSpec,
	}
	out, err := expt.RunScenario(sc, xrand.New(*seed), expt.RunOptions{Workers: *parallel})
	if err != nil {
		return err
	}

	m := out.Metrics
	fmt.Printf("protocol=%s n=%d d=%d byz=%d attack=%s placement=%s seed=%d\n",
		*proto, *n, *d, *byzN, *attack, *placement, *seed)
	if out.Runner != nil {
		fmt.Printf("churn=%d/round churn_stop=%d rounds=%d joined=%d left=%d alive=%d byz_alive=%d\n",
			*churn, *churnStop, out.Rounds, out.Runner.Joined(), out.Runner.Left(),
			out.Net.NumAlive(), out.Roster.Count())
	} else {
		fmt.Printf("rounds=%d\n", out.Rounds)
	}
	if delaySpec != "" || faultSpec != "" {
		fmt.Printf("delay=%s fault=%s dropped=%d\n",
			orDash(delaySpec), orDash(faultSpec), m.Dropped)
	}
	fmt.Printf("messages=%d bits=%d max_msg_bits=%d\n", m.Messages, m.Bits, m.MaxMsgBits)
	note := ""
	if out.Runner != nil {
		note = " (over nodes alive at the end)"
	}
	printDecisions(out.Outcomes, out.Honest, *n, *d, m, note)
	return nil
}

// orDash renders an empty axis spec as "-" in the run report.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// splitList parses a comma-separated CLI list.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitInts parses a comma-separated int list.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", p, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// atLeastOne rejects a scale flag below 1. The scenario layer reads a
// zero N or D as "use the default", so without this check -n 0 would
// print n=0 and silently run the default size.
func atLeastOne(flag string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s %d: must be at least 1", flag, v)
	}
	return nil
}

// splitFloats parses a comma-separated float list.
func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q in list %q", p, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// matrixCmd enumerates a slice of the scenario grid — the cross-product
// of every comma-separated axis list — and runs it through the
// concurrent sweep driver.
// matrixFlags registers the shared grid flags (axes, shape, seed,
// trials, parallelism) on fs and returns a builder that assembles the
// Matrix and Config after fs.Parse. `byzcount matrix` and `byzcount
// sweep` accept the identical grid vocabulary — the sweep is the
// durable execution of the same cells.
func matrixFlags(fs *flag.FlagSet) func() (expt.Matrix, expt.Config, error) {
	protos := fs.String("proto", "congest", "comma-separated protocol axis")
	substrates := fs.String("substrate", "hnd", "comma-separated substrate axis")
	adversaries := fs.String("adversary", "none", "comma-separated adversary axis")
	placements := fs.String("placement", "random", "comma-separated placement axis")
	ns := fs.String("n", "256", "comma-separated network sizes")
	byzFracs := fs.String("byz-frac", "0", "comma-separated Byzantine fractions (0 = benign)")
	churns := fs.String("churn", "0", "comma-separated churn rates (leaves=joins per round)")
	churnStop := fs.Int("churn-stop", 150, "disable churn from this round on (0 = churn forever)")
	delays := fs.String("delay", "", "comma-separated delivery-latency model specs (empty = unit latency)")
	faults := fs.String("fault", "", "comma-separated message-fault model specs (empty = none)")
	d := fs.Int("d", 8, "degree parameter")
	maxPhase := fs.Int("max-phase", 8, "congest phase cap (bounds hostile cells)")
	stopFrac := fs.Float64("stop-frac", 0, "static cells: stop once this fraction of honest nodes decided")
	seed := fs.Uint64("seed", 42, "root random seed")
	trials := fs.Int("trials", 3, "trials per cell")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent cells; tables are identical for every value")
	subcache := fs.Bool("subcache", true,
		"reuse identically drawn substrates across cells (tables are identical either way)")
	return func() (expt.Matrix, expt.Config, error) {
		expt.SetSubstrateCache(*subcache)
		nList, err := splitInts(*ns)
		if err != nil {
			return expt.Matrix{}, expt.Config{}, err
		}
		for _, n := range nList {
			if err := atLeastOne("-n", n); err != nil {
				return expt.Matrix{}, expt.Config{}, err
			}
		}
		if err := atLeastOne("-d", *d); err != nil {
			return expt.Matrix{}, expt.Config{}, err
		}
		fracList, err := splitFloats(*byzFracs)
		if err != nil {
			return expt.Matrix{}, expt.Config{}, err
		}
		churnList, err := splitInts(*churns)
		if err != nil {
			return expt.Matrix{}, expt.Config{}, err
		}
		profiles := make([]expt.ChurnProfile, 0, len(churnList))
		for _, k := range churnList {
			profiles = append(profiles, expt.ChurnProfile{Leaves: k, Joins: k, StopAfter: *churnStop, Mixed: true})
		}
		m := expt.Matrix{
			Protos:      splitList(*protos),
			Substrates:  splitList(*substrates),
			Adversaries: splitList(*adversaries),
			Placements:  splitList(*placements),
			Ns:          nList,
			ByzFracs:    fracList,
			Churns:      profiles,
			Delays:      splitList(*delays),
			Faults:      splitList(*faults),
			D:           *d,
			MaxPhase:    *maxPhase,
			StopFrac:    *stopFrac,
		}
		return m, expt.Config{Seed: *seed, Trials: *trials, Parallel: *parallel}, nil
	}
}

func matrixCmd(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	build := matrixFlags(fs)
	format := fs.String("format", "table", "output format: table|csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, cfg, err := build()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tbl, err := expt.RunMatrixCtx(ctx, cfg, m)
	if err != nil {
		return err
	}
	if *format == "csv" {
		fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
	} else {
		fmt.Println(tbl.Render())
	}
	return nil
}

// sweepCmd is the durable matrix: the same grid as matrixCmd executed
// through the WAL-backed crash-recoverable driver. SIGINT/SIGTERM
// drain in-flight cells, flush the log, and leave a resumable
// directory; `-resume` picks an interrupted sweep back up and produces
// tables byte-identical to an uninterrupted run.
func sweepCmd(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	build := matrixFlags(fs)
	out := fs.String("out", "", "sweep directory to create (manifest + cell log + outputs)")
	resume := fs.String("resume", "", "resume the interrupted sweep in this directory (grid flags are ignored; the manifest wins)")
	retries := fs.Int("retries", 0, "retries per transiently failing cell before quarantine (0 = default 2, negative = none)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell attempt timeout; exceeded cells are quarantined (0 = none)")
	progress := fs.Bool("progress", false, "print a progress line after every completed cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*out == "") == (*resume == "") {
		return fmt.Errorf("sweep needs exactly one of -out DIR (fresh) or -resume DIR (continue)")
	}
	m, cfg, err := build()
	if err != nil {
		return err
	}
	sha, _ := perf.GitState()
	opts := expt.SweepOptions{
		Retries:     *retries,
		CellTimeout: *cellTimeout,
		GitSHA:      sha,
	}
	if *progress {
		opts.OnCell = func(done, total int) {
			fmt.Printf("sweep: %d/%d cells\n", done, total)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := *out
	var sum *expt.SweepSummary
	if *resume != "" {
		dir = *resume
		sum, err = expt.ResumeMatrixSweep(ctx, dir, cfg, opts)
	} else {
		sum, err = expt.RunMatrixSweep(ctx, cfg, m, dir, opts)
	}
	if sum != nil && sum.Interrupted {
		return fmt.Errorf("interrupted with %d/%d cells done; resume with: byzcount sweep -resume %s",
			sum.Completed+len(sum.Quarantined), sum.Total, dir)
	}
	if err != nil {
		return err
	}
	fmt.Println(sum.Table.Render())
	fmt.Printf("sweep complete: %d cells (%d replayed from log) -> %s\n", sum.Total, sum.Replayed, dir)
	if n := len(sum.Quarantined); n > 0 {
		for _, q := range sum.Quarantined {
			fmt.Fprintf(os.Stderr, "quarantined: %s trial %d (seed %d, %d attempts): %s\n",
				q.Row, q.Trial, q.Seed, q.Attempts, q.Err)
		}
		return fmt.Errorf("%d cell(s) quarantined; healthy cells completed (see %s/summary.jsonl)", n, dir)
	}
	return nil
}

// printDecisions renders the decision metrics and traffic series shared
// by the static and churn run reports; note is appended to the
// decided_fraction line.
func printDecisions(outcomes []counting.Outcome, honest []bool, n, d int, m sim.Metrics, note string) {
	hist := stats.NewHistogram()
	for _, e := range counting.DecidedEstimates(outcomes, honest) {
		hist.Add(e)
	}
	fmt.Printf("decided_fraction=%.4f%s\n", counting.DecidedFraction(outcomes, honest), note)
	fmt.Printf("estimate histogram (value:count): %s\n", hist)
	fmt.Printf("reference: log2(n)=%.2f log_%d(n)=%.2f\n",
		counting.Log2(n), d, counting.LogD(n, d))
	if len(m.MessagesByRound) > 1 {
		series := report.Downsample(report.Ints(m.MessagesByRound), 100)
		fmt.Printf("traffic per round (downsampled): %s\n", report.Sparkline(series))
	}
}
