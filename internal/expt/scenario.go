package expt

// The scenario-composition layer: a declarative Scenario spec over five
// orthogonal axes — protocol x substrate x adversary x placement x
// churn — with a named registry per axis, so the cross-product of
// everything the reproduction can execute is enumerable (the `byzcount
// matrix` subcommand) instead of hand-wired one runner at a time.
// E2-E6, E12-E14 and E15 are rebased onto RunScenario as proof the
// old runners decompose; their tables are byte-identical to the
// pre-scenario code because every axis implementation derives its
// randomness with the exact split labels the hand-wired runners used
// ("graph", "place", "run", "spam", "world", "when", "net", "eng",
// ...). E1, E7, E9, E10 and E11 still wire runProtocol by hand: their
// labels or substrates have no axis value, and they move when the
// determinism contract is versioned. New cross-product cells —
// Byzantine adversaries on churning topologies — are E16-E18.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// ChurnProfile is the churn axis: per-round leaves and joins applied
// between rounds, quiescing at StopAfter (0 = churn forever). Mixed
// selects the well-mixed event randomness (see dynamic.Churn.Mixed; the
// legacy derivation exists only because E15's published tables pin it).
type ChurnProfile struct {
	Leaves, Joins, StopAfter int
	Mixed                    bool
}

// Active reports whether the profile applies any churn.
func (c ChurnProfile) Active() bool { return c.Leaves > 0 || c.Joins > 0 }

// Scenario is one cell of the composition grid. Zero values select the
// benign static defaults, so a Scenario literal reads like the sentence
// describing the run.
type Scenario struct {
	Proto     string // Protocols key (default "congest")
	Substrate string // Substrates key (default "hnd")
	Adversary string // Adversaries key (default "none", required if Byz > 0)
	Placement string // Placements key (default "random")

	N, D int // scale axis (defaults 256, 8)

	// Byz is the initial Byzantine count. ByzFrac, when positive,
	// overrides it with round(ByzFrac*N) and is the fraction a churn
	// run's roster maintains as the membership turns over; with only
	// Byz set, the maintained fraction is Byz/N.
	Byz     int
	ByzFrac float64
	// ByzJoiners, when positive, starts the run benign and turns
	// exactly the first ByzJoiners arrivals Byzantine (the E18 "single
	// Byzantine joiner" scenario). Requires churn.
	ByzJoiners int

	Churn ChurnProfile
	// Dynamic forces the dynamically maintained substrate even when the
	// churn profile is all-zero (e.g. E15's churn=0 baseline row, which
	// must run on the same topology family as its churned rows).
	Dynamic bool

	// Delay and Fault are the virtual-time delivery axes: a latency-model
	// spec (sim.ParseDelayModel — "unit", "uniform:1-4", "geo:0.5@8",
	// "region:2/1/6", "gst:32/uniform:1-6") and a message-fault spec
	// (sim.ParseFaultModel — "drop:0.05", "partition:2@16-48"). Empty
	// Delay means unit latency, the paper's synchronous rounds; empty
	// Fault means no message is lost. An explicit "unit" runs the same
	// schedule as empty, but specs appear verbatim in Label(), so cells
	// differing in their spec strings draw distinct sweep sub-seeds.
	Delay string
	Fault string

	MaxPhase  int     // congest protocols: phase-cap override (0 = default)
	MaxRounds int     // round-budget override (0 = the protocol's default)
	StopFrac  float64 // stop once this fraction of the (alive) honest nodes decided (0 = run to halt)
}

// withDefaults fills the zero-value axes.
func (sc Scenario) withDefaults() Scenario {
	if sc.Proto == "" {
		sc.Proto = "congest"
	}
	if sc.Substrate == "" {
		sc.Substrate = "hnd"
	}
	if sc.Adversary == "" {
		sc.Adversary = "none"
	}
	if sc.Placement == "" {
		sc.Placement = "random"
	}
	if sc.N == 0 {
		sc.N = 256
	}
	if sc.D == 0 {
		sc.D = 8
	}
	return sc
}

// Label renders the scenario's grid-cell identity — every axis value
// plus the scale and Byzantine budget, with the full churn profile —
// as a compact tuple. It is the row label of matrix tables, the matrix
// dedupe key, and the sub-seed label of the sweep driver, so two cells
// whose labels agree draw identical randomness: every field that
// selects a different cell must appear here. Run-shape overrides
// (MaxPhase, MaxRounds, StopFrac) are deliberately excluded — they
// reshape how long a cell runs, not which cell it is, and keeping them
// out means e.g. raising the phase cap reuses the same substrate and
// placement draws.
func (sc Scenario) Label() string {
	sc = sc.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s", sc.Proto, sc.Substrate, sc.Adversary)
	if sc.Byz > 0 || sc.ByzFrac > 0 {
		fmt.Fprintf(&b, "/%s", sc.Placement)
	}
	fmt.Fprintf(&b, "/n=%d", sc.N)
	if sc.D != 8 {
		fmt.Fprintf(&b, "/d=%d", sc.D)
	}
	switch {
	case sc.ByzFrac > 0:
		fmt.Fprintf(&b, "/byz=%.3g", sc.ByzFrac)
	case sc.Byz > 0:
		fmt.Fprintf(&b, "/byz=%d", sc.Byz)
	}
	if sc.ByzJoiners > 0 {
		fmt.Fprintf(&b, "/byzjoin=%d", sc.ByzJoiners)
	}
	if sc.Churn.Active() {
		fmt.Fprintf(&b, "/churn=%d-%d", sc.Churn.Leaves, sc.Churn.Joins)
		if sc.Churn.StopAfter > 0 {
			fmt.Fprintf(&b, "@%d", sc.Churn.StopAfter)
		}
		if sc.Churn.Mixed {
			b.WriteString("+mixed")
		}
	} else if sc.Dynamic {
		b.WriteString("/dynamic")
	}
	if sc.Delay != "" {
		fmt.Fprintf(&b, "/delay=%s", sc.Delay)
	}
	if sc.Fault != "" && sc.Fault != "none" {
		fmt.Fprintf(&b, "/fault=%s", sc.Fault)
	}
	return b.String()
}

// byzBudget resolves the initial Byzantine count and the fraction a
// churn roster maintains.
func (sc Scenario) byzBudget() (count int, target float64) {
	if sc.ByzFrac > 0 {
		return int(math.Round(sc.ByzFrac * float64(sc.N))), sc.ByzFrac
	}
	if sc.Byz > 0 {
		return sc.Byz, float64(sc.Byz) / float64(sc.N)
	}
	return 0, 0
}

// Validate checks that every numeric field is in range (see
// checkValues), that every axis name resolves, and that the axes
// compose (schedule-driven adversaries need the CONGEST protocol, churn
// needs the dynamically maintainable substrate, ...). Error messages
// enumerate the valid values so CLI typos fail fast and helpfully.
func (sc Scenario) Validate() error {
	if err := sc.checkValues(); err != nil {
		return err
	}
	sc = sc.withDefaults()
	proto, ok := Protocols[sc.Proto]
	if !ok {
		return fmt.Errorf("expt: unknown protocol %q (have %v)", sc.Proto, ProtocolNames())
	}
	if _, ok := Substrates[sc.Substrate]; !ok {
		return fmt.Errorf("expt: unknown substrate %q (have %v)", sc.Substrate, SubstrateNames())
	}
	adv, ok := Adversaries[sc.Adversary]
	if !ok {
		return fmt.Errorf("expt: unknown adversary %q (have %v)", sc.Adversary, AdversaryNames())
	}
	if _, ok := Placements[sc.Placement]; !ok {
		return fmt.Errorf("expt: unknown placement %q (have %v)", sc.Placement, PlacementNames())
	}
	count, _ := sc.byzBudget()
	if (count > 0 || sc.ByzJoiners > 0) && adv.Proc == nil {
		return fmt.Errorf("expt: %d Byzantine nodes need an adversary (have %v)", max(count, sc.ByzJoiners), AdversaryNames())
	}
	if proto.Congest && sc.D < 2 {
		return fmt.Errorf("expt: the %s protocol needs degree d >= 2, not %d", sc.Proto, sc.D)
	}
	if adv.NeedsSchedule && !proto.Congest {
		return fmt.Errorf("expt: adversary %q is schedule-driven and needs the congest protocol, not %q", sc.Adversary, sc.Proto)
	}
	if (sc.Churn.Active() || sc.Dynamic) && sc.Substrate != "hnd" {
		return fmt.Errorf("expt: churn requires the dynamically maintained hnd substrate, not %q", sc.Substrate)
	}
	if sc.ByzJoiners > 0 && !sc.Churn.Active() {
		return fmt.Errorf("expt: ByzJoiners needs churn (no joiners arrive on a static network)")
	}
	if sc.ByzJoiners > 0 && count > 0 {
		return fmt.Errorf("expt: ByzJoiners starts the run benign and cannot combine with an initial Byzantine budget (Byz/ByzFrac)")
	}
	if sc.N < 3 || sc.D < 1 {
		return fmt.Errorf("expt: degenerate scale n=%d d=%d", sc.N, sc.D)
	}
	if sc.Delay != "" {
		if _, err := sim.ParseDelayModel(sc.Delay); err != nil {
			return err
		}
	}
	if sc.Fault != "" {
		if _, err := sim.ParseFaultModel(sc.Fault); err != nil {
			return err
		}
	}
	return nil
}

// checkValues rejects numeric fields no cell can mean: negative counts,
// round caps and churn rates, and fractions that are NaN or outside
// [0, 1]. Unlike a composition hole (which a matrix slice legitimately
// crosses and skips), an out-of-range value is a typo, so Matrix
// reports it instead of skipping the cell. Each fraction check is
// written !(x >= 0 && x <= 1) so that NaN fails it.
func (sc Scenario) checkValues() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Byz", sc.Byz},
		{"ByzJoiners", sc.ByzJoiners},
		{"Churn.Leaves", sc.Churn.Leaves},
		{"Churn.Joins", sc.Churn.Joins},
		{"Churn.StopAfter", sc.Churn.StopAfter},
		{"MaxPhase", sc.MaxPhase},
		{"MaxRounds", sc.MaxRounds},
	} {
		if f.v < 0 {
			return fmt.Errorf("expt: %s = %d is negative", f.name, f.v)
		}
	}
	if !(sc.ByzFrac >= 0 && sc.ByzFrac <= 1) {
		return fmt.Errorf("expt: ByzFrac = %g is outside [0, 1]", sc.ByzFrac)
	}
	if !(sc.StopFrac >= 0 && sc.StopFrac <= 1) {
		return fmt.Errorf("expt: StopFrac = %g is outside [0, 1]", sc.StopFrac)
	}
	return nil
}

// scenarioCtx carries the resolved pieces axis implementations build
// procs from.
type scenarioCtx struct {
	sc      Scenario
	rng     *xrand.Rand // the trial's root stream
	congest counting.CongestParams
	local   counting.LocalParams
	byz     []bool // initial Byzantine mask (by vertex/slot)

	world *byzantine.FakeWorld // fake adversary: the shared region
	when  *xrand.Rand          // crash adversary: the crash-round stream
}

// Protocol is one value of the protocol axis: how honest nodes count.
type Protocol struct {
	Name string
	// Congest marks the CONGEST protocol; its schedule is available to
	// schedule-driven adversaries and its metrics use the log_d band.
	Congest bool
	// MaxRounds is the protocol's default round budget.
	MaxRounds func(ctx *scenarioCtx) int
	// Proc builds the honest process for vertex/slot v.
	Proc func(ctx *scenarioCtx, v int) sim.Proc
}

// Protocols is the protocol-axis registry.
var Protocols = map[string]Protocol{
	"congest": {
		Name: "congest", Congest: true,
		MaxRounds: func(ctx *scenarioCtx) int { return congestMaxRounds(ctx.congest) },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewCongestProc(ctx.congest) },
	},
	"local": {
		Name:      "local",
		MaxRounds: func(ctx *scenarioCtx) int { return ctx.local.MaxRounds + 8 },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewLocalProc(ctx.local) },
	},
	"geometric": {
		Name:      "geometric",
		MaxRounds: func(ctx *scenarioCtx) int { return 50 * ctx.sc.N },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewGeometricProc(16) },
	},
	"support": {
		Name:      "support",
		MaxRounds: func(ctx *scenarioCtx) int { return 50 * ctx.sc.N },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewSupportProc(32, 16) },
	},
	"kmv": {
		Name:      "kmv",
		MaxRounds: func(ctx *scenarioCtx) int { return 50 * ctx.sc.N },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewKMVProc(32, 16) },
	},
	"walk": {
		Name:      "walk",
		MaxRounds: func(ctx *scenarioCtx) int { return 100 * ctx.sc.N },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewReturnWalkProc(4, 64*ctx.sc.N) },
	},
	"tree": {
		Name:      "tree",
		MaxRounds: func(ctx *scenarioCtx) int { return 20 * ctx.sc.N },
		Proc:      func(ctx *scenarioCtx, v int) sim.Proc { return counting.NewTreeCountProc(v == findRoot(ctx.byz)) },
	},
}

// Substrate is one value of the substrate axis: the topology family the
// run executes on. Static families build a graph.Graph; under an active
// churn profile the (dynamically maintainable) hnd family builds a
// dynamic.Network instead — see RunScenario.
type Substrate struct {
	Name string
	// Deterministic marks families that ignore their random stream
	// (ring, torus): every trial at one scale builds the same graph, so
	// the substrate cache drops the seed from their key and all cells
	// share a single build.
	Deterministic bool
	Build         func(n, d int, rng *xrand.Rand) (*graph.Graph, error)
	// Implicit, when set, marks an on-demand family: RunScenario runs it
	// on a sim.New engine over the returned topology instead of
	// materializing a CSR, so a million-vertex cell costs O(1) substrate
	// memory. It takes the same static run path as a materialized family
	// (only the build differs) and both engine constructors share their
	// ID-stream derivation, so an implicit cell's outputs are
	// byte-identical to its materialized counterpart's (pinned by
	// TestImplicitScenarioMatchesMaterialized and FuzzRunScenario).
	// Implicit families bypass the substrate cache — building one is a
	// couple of field writes, cheaper than the cache lookup (see
	// cache.go). Build stays populated as the materialized counterpart
	// for tooling that needs a *graph.Graph.
	Implicit func(n, d int) (sim.Topology, error)
}

// torusSide returns the smallest side with side*side >= n — the square
// shape both torus substrates share.
func torusSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// latticeK maps the scenario degree axis to the ring-lattice k (2k
// neighbors per vertex), mirroring the smallworld family's d/2.
func latticeK(d int) int { return max(d/2, 1) }

// Substrates is the substrate-axis registry.
var Substrates = map[string]Substrate{
	"hnd": {Name: "hnd", Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
		return graph.HND(n, d, rng)
	}},
	"regular": {Name: "regular", Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
		return graph.SimpleRegular(n, d, 100, rng)
	}},
	"smallworld": {Name: "smallworld", Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
		return graph.WattsStrogatz(n, max(d/2, 1), 0.2, rng)
	}},
	"ring": {Name: "ring", Deterministic: true, Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
		return graph.Ring(n)
	}},
	"torus": {Name: "torus", Deterministic: true, Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
		return graph.Torus(torusSide(n), torusSide(n))
	}},
	// Implicit counterparts of the deterministic families, plus the
	// unrewired k-nearest lattice: same adjacency (row for row), no
	// materialized CSR — the substrates the n=10^6 scaling lane runs on.
	"ring-implicit": {Name: "ring-implicit", Deterministic: true,
		Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
			return graph.Ring(n)
		},
		Implicit: func(n, d int) (sim.Topology, error) {
			return graph.ImplicitRing(n)
		}},
	"torus-implicit": {Name: "torus-implicit", Deterministic: true,
		Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
			return graph.Torus(torusSide(n), torusSide(n))
		},
		Implicit: func(n, d int) (sim.Topology, error) {
			return graph.NewTorusGrid(torusSide(n), torusSide(n))
		}},
	"lattice": {Name: "lattice", Deterministic: true,
		Build: func(n, d int, rng *xrand.Rand) (*graph.Graph, error) {
			lat, err := graph.NewRingLattice(n, latticeK(d))
			if err != nil {
				return nil, err
			}
			return lat.Materialize()
		},
		Implicit: func(n, d int) (sim.Topology, error) {
			return graph.NewRingLattice(n, latticeK(d))
		}},
}

// Adversary is one value of the adversary axis: what Byzantine nodes
// do. Prepare (optional) builds state shared by every Byzantine node —
// e.g. the consistent fake world. Proc builds the process occupying
// vertex/slot v with node ID id; initial is false only for churn
// joiners. Procs are built before Run, initial ones in ascending slot
// order, so shared state is fixed there and only read while the engine
// runs. Implementations derive their randomness from ctx.rng with fixed
// labels so runs are pure functions of the seed.
type Adversary struct {
	Name string
	// NeedsSchedule marks adversaries driven by the CONGEST schedule.
	NeedsSchedule bool
	Prepare       func(ctx *scenarioCtx) error
	Proc          func(ctx *scenarioCtx, v int, id sim.NodeID, initial bool) sim.Proc
}

// Adversaries is the adversary-axis registry.
var Adversaries = map[string]Adversary{
	"none": {Name: "none"},
	// Beacon spam with a per-vertex stream — the E3/E12/E16 convention
	// (label "spam", indexed by vertex/slot).
	"spam": {
		Name: "spam", NeedsSchedule: true,
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return byzantine.NewBeaconSpammer(ctx.congest.Schedule, 6, false, ctx.rng.SplitN("spam", v))
		},
	},
	// Beacon spam with the shared-seed stream derivation E6's published
	// tables pin ("run"/"spamr": every spammer gets an identical,
	// independent stream instance).
	"spam-shared": {
		Name: "spam-shared", NeedsSchedule: true,
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return byzantine.NewBeaconSpammer(ctx.congest.Schedule, 6, false, ctx.rng.Split("run").Split("spamr"))
		},
	},
	"silent": {
		Name: "silent",
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc { return byzantine.Silent{} },
	},
	// The consistent fake-network attack of Remark 1 (LOCAL protocol):
	// all Byzantine nodes share one fabricated region, built from the
	// "world" stream. Initial nodes attach as they are built; churn
	// joiners never see round 0, so they attach nothing and heartbeat.
	"fake": {
		Name: "fake",
		Prepare: func(ctx *scenarioCtx) error {
			count, _ := ctx.sc.byzBudget()
			world, err := byzantine.NewFakeWorld(2*ctx.sc.N, ctx.sc.D, ctx.sc.D+2,
				max(count, 1), ctx.rng.Split("world"))
			if err != nil {
				return err
			}
			ctx.world = world
			return nil
		},
		Proc: func(ctx *scenarioCtx, v int, id sim.NodeID, initial bool) sim.Proc {
			if !initial {
				return byzantine.NewFakeNetworkLocal(nil, id, 1)
			}
			return byzantine.NewFakeNetworkLocal(ctx.world, id, 1)
		},
	},
	// Fail-stop churn: the node runs the honest protocol and crashes at
	// a random round — the E13 convention ("when"/"c", per vertex).
	"crash": {
		Name: "crash",
		Prepare: func(ctx *scenarioCtx) error {
			ctx.when = ctx.rng.Split("when")
			return nil
		},
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			honest := Protocols[ctx.sc.withDefaults().Proto].Proc(ctx, v)
			return byzantine.NewCrash(honest, 20+ctx.when.SplitN("c", v).Intn(200))
		},
	},
	"geo-max": {
		Name: "geo-max",
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return &byzantine.GeoMaxFaker{FakeValue: 1 << 20, Period: 1}
		},
	},
	"support-min": {
		Name: "support-min",
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return &byzantine.SupportMinFaker{K: 32, Period: 4}
		},
	},
	"kmv-poison": {
		Name: "kmv-poison",
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return &byzantine.KMVPoisoner{K: 32, Period: 4}
		},
	},
	"tree-inflate": {
		Name: "tree-inflate",
		Proc: func(ctx *scenarioCtx, v int, _ sim.NodeID, _ bool) sim.Proc {
			return &byzantine.TreeCountInflater{Inflation: 1 << 20}
		},
	},
}

// Placements is the placement-axis registry: where the Byzantine nodes
// sit, over any Substrate (static or churning).
var Placements = map[string]byzantine.Placement{
	"random":    byzantine.RandomPlacement,
	"clustered": byzantine.ClusteredPlacement,
	"spread":    byzantine.SpreadPlacement,
}

// sortedKeys returns a registry's names, sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ProtocolNames returns the registered protocol names, sorted.
func ProtocolNames() []string { return sortedKeys(Protocols) }

// SubstrateNames returns the registered substrate names, sorted.
func SubstrateNames() []string { return sortedKeys(Substrates) }

// AdversaryNames returns the registered adversary names, sorted.
func AdversaryNames() []string { return sortedKeys(Adversaries) }

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string { return sortedKeys(Placements) }

// ScenarioOutcome is what one scenario run produces (a hand-wired
// runProtocol run returns one too, with no substrate set). Outcomes,
// Honest, and Procs are parallel: indexed by vertex on a static
// substrate, and by position in AliveSlots (the nodes alive at the end,
// in slot order) on a churning one.
type ScenarioOutcome struct {
	Outcomes []counting.Outcome
	Honest   []bool
	Procs    []sim.Proc
	Rounds   int
	Metrics  sim.Metrics

	Byz      []bool       // initial Byzantine mask, by vertex/slot
	Graph    *graph.Graph // static (materialized) runs
	Topology sim.Topology // implicit-substrate runs (Graph stays nil)
	Engine   *sim.Engine  // static and implicit runs

	// Churn runs only:
	Runner     *dynamic.Runner
	Net        *dynamic.Network
	Roster     *byzantine.Roster
	AliveSlots []int
}

// RunOptions is the execution-shape half of a scenario run: everything
// that changes how a cell executes without changing which cell it is.
// The zero value is the default serial run, so call sites read
// RunScenario(sc, rng, RunOptions{}) unless they have something to say.
// (Delivery semantics — delay and fault models — are Scenario axes, not
// options: they select a different cell with its own label and tables.)
type RunOptions struct {
	// Workers is the engine's Step-shard worker count (0 or 1 = serial;
	// outputs are bit-identical for every value).
	Workers int
	// Context, when non-nil, cancels the run cooperatively: the engine
	// polls ctx.Done() every round and aborts with sim.ErrCanceled once
	// it is closed. Cancellation is an execution-shape option by the same
	// argument as Workers — a run that completes does so bit-identically
	// with or without a context; one that is canceled returns an error,
	// never a partial result.
	Context context.Context
}

// RunScenario executes one scenario cell. rng is the cell's root random
// stream (a sweep driver sub-seed, or xrand.New(seed) from the CLI).
// Static cells run on sim.New over the built graph, churning cells on
// dynamic.Runner with a byzantine.Roster re-evaluating the placement as
// members arrive; a Delay or Fault axis puts the engine on the
// virtual-time scheduler either way.
func RunScenario(sc Scenario, rng *xrand.Rand, opts RunOptions) (*ScenarioOutcome, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	ctx := &scenarioCtx{sc: sc, rng: rng}
	proto := Protocols[sc.Proto]
	adv := Adversaries[sc.Adversary]
	if proto.Congest {
		ctx.congest = counting.DefaultCongestParams(sc.D)
		if sc.MaxPhase > 0 {
			ctx.congest.MaxPhase = sc.MaxPhase
		}
	}
	if sc.Proto == "local" {
		ctx.local = counting.DefaultLocalParams(sc.D + 2)
	}
	// Validate parsed these already; nil models (empty specs) mean unit
	// latency and no faults.
	eo := engineOpts{workers: opts.Workers}
	if opts.Context != nil {
		eo.done = opts.Context.Done()
	}
	eo.delay, _ = sim.ParseDelayModel(sc.Delay)
	eo.fault, _ = sim.ParseFaultModel(sc.Fault)
	if sc.Churn.Active() || sc.Dynamic {
		return runScenarioChurn(sc, ctx, proto, adv, eo)
	}
	return runScenarioStatic(sc, ctx, proto, adv, eo)
}

// runScenarioStatic is the fixed-substrate path, materialized or
// implicit; the only branch is the build. A materialized family goes
// through the substrate cache; an implicit one resolves neighborhoods on
// demand, so no CSR is built. The split-label sequence ("graph", "place",
// adversary Prepare labels, "run") is exactly the hand-wired runners',
// which is what keeps the rebased tables byte-identical. Both sim.New
// dispatch paths assign IDs the same way, so an implicit cell's outputs
// are byte-identical to its materialized counterpart's.
func runScenarioStatic(sc Scenario, ctx *scenarioCtx, proto Protocol, adv Adversary, eo engineOpts) (*ScenarioOutcome, error) {
	sub := Substrates[sc.Substrate]
	// The build stream is split off purely for this build, so its seed
	// identifies the draw and the substrate cache can reuse one immutable
	// graph across every cell that derives the same stream. Implicit
	// builds are deterministic and never draw from it.
	grng := ctx.rng.Split("graph")
	var (
		topo sim.Topology
		g    *graph.Graph
		err  error
	)
	if sub.Implicit != nil {
		topo, err = sub.Implicit(sc.N, sc.D)
	} else {
		g, err = cachedSubstrate(sc.Substrate, sc.N, sc.D, grng.Seed(), sub.Deterministic,
			func() (*graph.Graph, error) { return sub.Build(sc.N, sc.D, grng) })
		topo = g
	}
	if err != nil {
		return nil, fmt.Errorf("expt: building %s(n=%d,d=%d): %w", sc.Substrate, sc.N, sc.D, err)
	}
	count, _ := sc.byzBudget()
	byz := make([]bool, topo.Slots())
	if count > 0 {
		byz, err = Placements[sc.Placement](topo, count, ctx.rng.Split("place"))
		if err != nil {
			return nil, err
		}
	}
	ctx.byz = byz
	if adv.Prepare != nil {
		if err := adv.Prepare(ctx); err != nil {
			return nil, err
		}
	}
	maxRounds := sc.MaxRounds
	if maxRounds == 0 {
		maxRounds = proto.MaxRounds(ctx)
	}
	r, err := runProtocolOnEngine(sim.New(topo, sim.WithSeed(ctx.rng.Split("run").Uint64())), byz,
		func(v int, eng *sim.Engine) sim.Proc { return proto.Proc(ctx, v) },
		func(v int, eng *sim.Engine) sim.Proc { return adv.Proc(ctx, v, eng.ID(v), true) },
		maxRounds, sc.StopFrac, eo)
	if err != nil {
		return nil, err
	}
	if g != nil {
		r.Graph = g
	} else {
		r.Topology = topo
	}
	return r, nil
}

// runScenarioChurn is the mutable-substrate path: the dynamically
// maintained H(n,d) under the scenario's churn profile, with a Roster
// re-evaluating the Byzantine placement as the membership turns over.
// Split labels ("net", "place", "roster", "eng") match E15's, so its
// rebased tables stay byte-identical (a benign scenario draws nothing
// from "place"/"roster").
func runScenarioChurn(sc Scenario, ctx *scenarioCtx, proto Protocol, adv Adversary, eo engineOpts) (*ScenarioOutcome, error) {
	net, err := dynamic.NewNetwork(sc.N, sc.D, ctx.rng.Split("net"))
	if err != nil {
		return nil, err
	}
	count, target := sc.byzBudget()
	mask := make([]bool, net.Slots())
	if count > 0 {
		mask, err = Placements[sc.Placement](net, count, ctx.rng.Split("place"))
		if err != nil {
			return nil, err
		}
	}
	roster, err := byzantine.NewRoster(mask, net.NumAlive(), target, ctx.rng.Split("roster"))
	if err != nil {
		return nil, err
	}
	ctx.byz = mask
	if adv.Prepare != nil {
		if err := adv.Prepare(ctx); err != nil {
			return nil, err
		}
	}
	// The factory consults the roster: initial members use the
	// placement mask; each arrival is decided by the roster's split
	// stream (maintaining the target fraction), except under
	// ByzJoiners, where exactly the first ByzJoiners arrivals turn
	// Byzantine and everyone else stays honest.
	initial := true
	joinOrd := 0
	factory := func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
		isByz := roster.IsByz(slot)
		if !initial {
			if sc.ByzJoiners > 0 {
				isByz = joinOrd < sc.ByzJoiners
				roster.Record(slot, isByz)
			} else {
				isByz = roster.OnJoin(slot)
			}
			joinOrd++
		}
		if isByz {
			return adv.Proc(ctx, slot, id, initial)
		}
		return proto.Proc(ctx, slot)
	}
	run, err := dynamic.NewRunner(net,
		dynamic.Churn{Leaves: sc.Churn.Leaves, Joins: sc.Churn.Joins,
			StopAfter: sc.Churn.StopAfter, Mixed: sc.Churn.Mixed},
		ctx.rng.Split("eng").Uint64(), factory)
	if err != nil {
		return nil, err
	}
	initial = false
	run.SetLeaveHook(roster.OnLeave)
	run.SetParallelism(max(eo.workers, 1))
	if eo.done != nil {
		run.Engine().SetCancel(eo.done)
	}
	if eo.delay != nil {
		run.SetDelayModel(eo.delay)
	}
	if eo.fault != nil {
		run.SetFaultModel(eo.fault)
	}
	if sc.StopFrac > 0 {
		// Stop once StopFrac of the currently alive honest nodes have
		// decided. While churn is active fresh joiners keep the decided
		// fraction down, so the condition effectively fires after the
		// churn quiesces — exactly the "let the survivors finish" read.
		eng := run.Engine()
		eng.SetStopCondition(func(round int) bool {
			honestTotal, decided := 0, 0
			for s := 0; s < eng.Slots(); s++ {
				if !net.Alive(s) || roster.IsByz(s) {
					continue
				}
				honestTotal++
				if e, ok := eng.Proc(s).(counting.Estimator); ok && e.Outcome().Decided {
					decided++
				}
			}
			return honestTotal == 0 || float64(decided) >= sc.StopFrac*float64(honestTotal)
		})
	}
	maxRounds := sc.MaxRounds
	if maxRounds == 0 {
		maxRounds = proto.MaxRounds(ctx)
	}
	rounds, err := run.Run(maxRounds)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("expt: topology invariant broken after run: %w", err)
	}
	procs, slots := run.AliveProcs()
	honest := make([]bool, len(procs))
	for i, s := range slots {
		honest[i] = !roster.IsByz(s)
	}
	return &ScenarioOutcome{
		Outcomes:   counting.Outcomes(procs),
		Honest:     honest,
		Procs:      procs,
		Rounds:     rounds,
		Metrics:    run.Metrics(),
		Byz:        mask,
		Runner:     run,
		Net:        net,
		Roster:     roster,
		AliveSlots: slots,
	}, nil
}
