package expt

import (
	"fmt"
	"math"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

// E1 — Theorem 1: the deterministic LOCAL algorithm decides in O(log n)
// rounds and n-o(n) good nodes land within the approximation band, under
// a consistent fake-network adversary with B = n^0.45 nodes.
func E1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Deterministic LOCAL counting: rounds and approximation vs n",
		Claim: "Theorem 1: O(log n) rounds; n-o(n) good nodes decide a constant-factor estimate of log n under n^(1-gamma) Byzantine nodes",
		Columns: []string{"n", "diam", "log2(n)", "B", "benign_mean", "attack_mean",
			"attack_bounded_frac", "rounds"},
	}
	const d = 8
	delta := d + 2
	root := xrand.New(cfg.Seed)
	ns := nSweep(cfg, []int{64, 128, 256, 512}, []int{64, 128})
	type res struct {
		diam, benignMean, attackMean, boundedFrac, rounds float64
	}
	results, err := sweepRows(cfg, root, ns,
		func(n int) string { return fmt.Sprintf("e1-n%d", n) },
		func(n, trial int, rng *xrand.Rand) (res, error) {
			g, err := hnd(n, d, rng.Split("graph"))
			if err != nil {
				return res{}, err
			}
			diam, err := g.Diameter()
			if err != nil {
				return res{}, err
			}
			params := counting.DefaultLocalParams(delta)

			benign, err := runProtocol(g, nil, rng.Split("benign").Uint64(),
				func(v int, eng *sim.Engine) sim.Proc { return counting.NewLocalProc(params) },
				nil, params.MaxRounds+8, true)
			if err != nil {
				return res{}, err
			}

			b := byzCount(n, 0.45)
			byz, err := byzantine.RandomPlacement(g, b, rng.Split("place"))
			if err != nil {
				return res{}, err
			}
			world, err := byzantine.NewFakeWorld(2*n, d, delta, b, rng.Split("world"))
			if err != nil {
				return res{}, err
			}
			attack, err := runProtocol(g, byz, rng.Split("attack").Uint64(),
				func(v int, eng *sim.Engine) sim.Proc { return counting.NewLocalProc(params) },
				func(v int, eng *sim.Engine) sim.Proc { return byzantine.NewFakeNetworkLocal(world, eng.ID(v), 1) },
				params.MaxRounds+8, true)
			if err != nil {
				return res{}, err
			}
			return res{
				diam:       float64(diam),
				benignMean: meanEstimate(benign),
				attackMean: meanEstimate(attack),
				boundedFrac: counting.FractionWithinFactor(attack.Outcomes, attack.Honest,
					1, float64(diam+3)),
				rounds: float64(attack.Rounds),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		rs := results[i]
		t.AddRow(n, stats.Mean(column(rs, func(r res) float64 { return r.diam })),
			counting.Log2(n), byzCount(n, 0.45),
			stats.Mean(column(rs, func(r res) float64 { return r.benignMean })),
			stats.Mean(column(rs, func(r res) float64 { return r.attackMean })),
			stats.Mean(column(rs, func(r res) float64 { return r.boundedFrac })),
			stats.Mean(column(rs, func(r res) float64 { return r.rounds })))
	}
	t.Notes = append(t.Notes,
		"bounded = estimate within [1, diam+3]; rounds and estimates must grow with log n")
	return t, nil
}

// E2 — Theorem 1 tolerance sweep: vary gamma (so B = n^(1-gamma)) with
// worst-case clustered placement.
func E2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "LOCAL algorithm tolerance: Byzantine budget sweep (clustered placement)",
		Claim:   "Theorem 1: up to n^(1-gamma) adversarial nodes for any fixed gamma > 0; the o(n) nodes near the adversary are forfeit (Remark 1)",
		Columns: []string{"gamma", "B", "decided_frac", "bounded_frac", "mean_est", "far_mean_est"},
	}
	const d = 8
	n := 256
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)
	gammas := []float64{0.9, 0.7, 0.5, 0.35}
	type res struct {
		decided, bounded, meanAll, meanFar float64
		hasFar                             bool
	}
	results, err := sweepRows(cfg, root, gammas,
		func(gamma float64) string { return fmt.Sprintf("e2-g%.2f", gamma) },
		func(gamma float64, trial int, rng *xrand.Rand) (res, error) {
			r, err := RunScenario(Scenario{
				Proto: "local", Adversary: "fake", Placement: "clustered",
				N: n, D: d, Byz: byzCount(n, 1-gamma), StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			diam, err := r.Graph.Diameter()
			if err != nil {
				return res{}, err
			}
			out := res{
				decided: counting.DecidedFraction(r.Outcomes, r.Honest),
				bounded: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					1, float64(diam+3)),
				meanAll: meanEstimate(r),
			}
			// "Far" nodes: distance > 2 from every Byzantine vertex — the
			// Good set of Lemma 1 at this scale.
			far := farMask(r.Graph, r.Byz, 2)
			var fsum float64
			var fcnt int
			for v, o := range r.Outcomes {
				if r.Honest[v] && far[v] && o.Decided {
					fsum += float64(o.Estimate)
					fcnt++
				}
			}
			if fcnt > 0 {
				out.meanFar = fsum / float64(fcnt)
				out.hasFar = true
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, gamma := range gammas {
		rs := results[i]
		t.AddRow(gamma, byzCount(n, 1-gamma),
			stats.Mean(column(rs, func(r res) float64 { return r.decided })),
			stats.Mean(column(rs, func(r res) float64 { return r.bounded })),
			stats.Mean(column(rs, func(r res) float64 { return r.meanAll })),
			stats.Mean(columnIf(rs, func(r res) bool { return r.hasFar },
				func(r res) float64 { return r.meanFar })))
	}
	return t, nil
}

// farMask marks vertices farther than radius from every Byzantine vertex.
func farMask(g *graph.Graph, byz []bool, radius int) []bool {
	far := make([]bool, g.N())
	for i := range far {
		far[i] = true
	}
	for v, isByz := range byz {
		if !isByz {
			continue
		}
		for w, dist := range g.BFSLimited(v, radius) {
			if dist != graph.Unreachable {
				far[w] = false
			}
		}
	}
	return far
}

// E3 — Theorem 2: the randomized CONGEST algorithm under beacon spam.
func E3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Randomized CONGEST counting under beacon spam vs n",
		Claim: "Theorem 2: O(B(n) log^2 n) rounds; >= (1-beta)n nodes decide a constant-factor estimate of log n whp, B(n)=n^(1/2-xi)",
		Columns: []string{"n", "logd(n)", "B", "decided_frac", "bounded_frac",
			"sacrificed_frac", "median_round", "T_round", "T/(B*log2^2 n)"},
	}
	const d = 8
	root := xrand.New(cfg.Seed)
	ns := nSweep(cfg, []int{128, 256, 512, 1024}, []int{64, 128})
	type res struct {
		decided, bounded, sacrificed, median, tRound float64
	}
	results, err := sweepRows(cfg, root, ns,
		func(n int) string { return fmt.Sprintf("e3-n%d", n) },
		func(n, trial int, rng *xrand.Rand) (res, error) {
			b := byzCount(n, 0.45)
			// One cell of the scenario grid: the spec lines up with the
			// axes (protocol, substrate, adversary, placement, scale) and
			// RunScenario reproduces the hand-wired runner byte-for-byte.
			r, err := RunScenario(Scenario{
				Proto: "congest", Substrate: "hnd",
				Adversary: "spam", Placement: "random",
				N: n, D: d, Byz: b, MaxPhase: 9, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			logd := counting.LogD(n, d)
			maxPhase := 9.0
			out := res{
				decided: counting.DecidedFraction(r.Outcomes, r.Honest),
				bounded: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					0.5*logd, 2*logd+2),
				// The sacrificed set: nodes dragged to the phase cap, i.e.
				// (essentially) the spammers' direct neighbors. Its fraction
				// is the beta of Theorem 2 and must shrink as n grows
				// (B*d/n ~ d*n^-0.55).
				sacrificed: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					maxPhase, 1e18),
			}
			var rounds []float64
			for v, o := range r.Outcomes {
				if !r.Honest[v] || !o.Decided {
					continue
				}
				rounds = append(rounds, float64(o.Round))
				// T of Definition 2 for the (1-beta)n guaranteed nodes:
				// the latest decision among nodes inside the estimate
				// band (the sacrificed cap-hitters are the beta fraction
				// the theorem excludes).
				if float64(o.Estimate) >= 0.5*logd && float64(o.Estimate) <= 2*logd+2 {
					if float64(o.Round) > out.tRound {
						out.tRound = float64(o.Round)
					}
				}
			}
			out.median = stats.Median(rounds)
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		rs := results[i]
		b := byzCount(n, 0.45)
		log2 := counting.Log2(n)
		tRounds := column(rs, func(r res) float64 { return r.tRound })
		norm := stats.Mean(tRounds) / (float64(max(b, 1)) * log2 * log2)
		t.AddRow(n, counting.LogD(n, d), b,
			stats.Mean(column(rs, func(r res) float64 { return r.decided })),
			stats.Mean(column(rs, func(r res) float64 { return r.bounded })),
			stats.Mean(column(rs, func(r res) float64 { return r.sacrificed })),
			stats.Mean(column(rs, func(r res) float64 { return r.median })),
			stats.Mean(tRounds), norm)
	}
	t.Notes = append(t.Notes,
		"median_round = median decision round among honest nodes; T_round = latest decision among in-band nodes (the T of Definition 2 for the (1-beta)n guaranteed deciders)",
		"T/(B*log2^2 n) staying O(1)-bounded reproduces the O(B log^2 n) round bound's shape",
		"sacrificed_frac is the measured beta: nodes at the phase cap, ~ the spammers' direct neighbors (B*d/n -> 0)")
	return t, nil
}

// E4 — Remark 2: distribution of decided estimates, benign vs attacked.
func E4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "CONGEST estimate distribution: benign vs beacon spam",
		Claim:   "Remark 2: estimates may differ per node by a constant factor but are upper-bounded by ~log n; most nodes agree within +-1",
		Columns: []string{"scenario", "mode", "frac_within_1_of_mode", "min", "max", "histogram"},
	}
	const d = 8
	n := 512
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)
	b := byzCount(n, 0.45)

	type scen struct {
		label string
		byz   int
	}
	scens := []scen{{"benign", 0}, {"spam_B=" + fmt.Sprint(b), b}}
	results, err := sweepRows(cfg, root, scens,
		func(s scen) string { return "e4-" + s.label },
		func(s scen, trial int, rng *xrand.Rand) ([]int, error) {
			r, err := RunScenario(Scenario{
				Proto: "congest", Adversary: "spam",
				N: n, D: d, Byz: s.byz, MaxPhase: 12, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return nil, err
			}
			return counting.DecidedEstimates(r.Outcomes, r.Honest), nil
		})
	if err != nil {
		return nil, err
	}
	for i, s := range scens {
		hist := stats.NewHistogram()
		for _, ests := range results[i] {
			for _, e := range ests {
				hist.Add(e)
			}
		}
		mode, _ := hist.Mode()
		t.AddRow(s.label, mode, hist.Fraction(mode-1, mode+1),
			hist.Buckets()[0], hist.Buckets()[len(hist.Buckets())-1], hist.String())
	}
	return t, nil
}

// E5 — Corollary 1: the benign case terminates fast and agrees.
func E5(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Benign CONGEST run: termination, agreement, message size vs n",
		Claim: "Corollary 1: with no Byzantine nodes the algorithm terminates in O(log n) rounds, Omega(n) nodes decide ~ceil(log n), and all messages stay small",
		Columns: []string{"n", "logd(n)", "rounds_to_halt", "rounds/log2(n)",
			"mode", "frac_within_1", "max_msg_bits"},
	}
	const d = 8
	root := xrand.New(cfg.Seed)
	ns := nSweep(cfg, []int{128, 256, 512, 1024, 2048}, []int{64, 128})
	type res struct {
		rounds, frac, maxBits, mode float64
	}
	results, err := sweepRows(cfg, root, ns,
		func(n int) string { return fmt.Sprintf("e5-n%d", n) },
		func(n, trial int, rng *xrand.Rand) (res, error) {
			// StopFrac 0: run to full halt.
			r, err := RunScenario(Scenario{Proto: "congest", N: n, D: d}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			hist := stats.NewHistogram()
			for _, e := range counting.DecidedEstimates(r.Outcomes, r.Honest) {
				hist.Add(e)
			}
			mode, _ := hist.Mode()
			return res{
				rounds:  float64(r.Rounds),
				frac:    hist.Fraction(mode-1, mode+1),
				maxBits: float64(r.Metrics.MaxMsgBits),
				mode:    float64(mode),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		rs := results[i]
		roundss := column(rs, func(r res) float64 { return r.rounds })
		t.AddRow(n, counting.LogD(n, d), stats.Mean(roundss),
			stats.Mean(roundss)/counting.Log2(n),
			stats.Mean(column(rs, func(r res) float64 { return r.mode })),
			stats.Mean(column(rs, func(r res) float64 { return r.frac })),
			stats.Mean(column(rs, func(r res) float64 { return r.maxBits })))
	}
	return t, nil
}

// E6 — baselines collapse under one Byzantine node; the paper's protocol
// does not.
func E6(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Baseline protocols vs a single Byzantine node",
		Claim:   "Section 1.2: the geometric / support-estimation / spanning-tree protocols are exact benignly but fail with even one Byzantine node",
		Columns: []string{"protocol", "byz", "median_estimate", "truth", "relative_error"},
	}
	const d = 8
	n := 256
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)
	truthLog2 := counting.Log2(n)

	// Each row is one cell of the scenario grid: the baseline protocols
	// and their one-node killers are just (protocol, adversary) axis
	// values, decided estimates post-processed per protocol family.
	medianEst := func(r *ScenarioOutcome) float64 {
		vals := counting.DecidedEstimates(r.Outcomes, r.Honest)
		return stats.Median(stats.Ints(vals))
	}
	logMedianEst := func(r *ScenarioOutcome) float64 {
		vals := counting.DecidedEstimates(r.Outcomes, r.Honest)
		if len(vals) == 0 {
			return 0
		}
		return math.Log2(math.Max(1, stats.Median(stats.Ints(vals))))
	}
	type row struct {
		name  string
		byz   int
		truth float64
		sc    Scenario
		post  func(*ScenarioOutcome) float64
	}
	mk := func(name string, byz int, truth float64, sc Scenario, post func(*ScenarioOutcome) float64) row {
		sc.N, sc.D, sc.Byz = n, d, byz
		return row{name, byz, truth, sc, post}
	}
	rows := []row{
		mk("geometric", 0, truthLog2, Scenario{Proto: "geometric", Adversary: "geo-max", MaxRounds: 4000}, medianEst),
		mk("geometric", 1, truthLog2, Scenario{Proto: "geometric", Adversary: "geo-max", MaxRounds: 4000}, medianEst),
		mk("support", 0, truthLog2, Scenario{Proto: "support", Adversary: "support-min", MaxRounds: 4000}, medianEst),
		mk("support", 1, truthLog2, Scenario{Proto: "support", Adversary: "support-min", MaxRounds: 4000}, medianEst),
		mk("birthday-kmv", 0, truthLog2, Scenario{Proto: "kmv", Adversary: "kmv-poison", MaxRounds: 4000}, medianEst),
		mk("birthday-kmv", 1, truthLog2, Scenario{Proto: "kmv", Adversary: "kmv-poison", MaxRounds: 4000}, medianEst),
		mk("return-walk", 0, truthLog2, Scenario{Proto: "walk", Adversary: "silent"}, medianEst), // walk absorber
		mk("return-walk", 4, truthLog2, Scenario{Proto: "walk", Adversary: "silent"}, medianEst),
		mk("spanning-tree", 0, truthLog2, Scenario{Proto: "tree", Adversary: "tree-inflate"}, logMedianEst),
		mk("spanning-tree", 1, truthLog2, Scenario{Proto: "tree", Adversary: "tree-inflate"}, logMedianEst),
		mk("congest(paper)", 0, counting.LogD(n, d),
			Scenario{Proto: "congest", Adversary: "spam-shared", MaxPhase: 12, StopFrac: 1}, medianEst),
		mk("congest(paper)", byzCount(n, 0.45), counting.LogD(n, d),
			Scenario{Proto: "congest", Adversary: "spam-shared", MaxPhase: 12, StopFrac: 1}, medianEst),
	}
	results, err := sweepRows(cfg, root, rows,
		func(rw row) string { return fmt.Sprintf("e6-%s-%d", rw.name, rw.byz) },
		func(rw row, trial int, rng *xrand.Rand) (float64, error) {
			r, err := RunScenario(rw.sc, rng, RunOptions{})
			if err != nil {
				return 0, err
			}
			return rw.post(r), nil
		})
	if err != nil {
		return nil, err
	}
	for i, rw := range rows {
		med := stats.Mean(results[i])
		relErr := math.Abs(med-rw.truth) / math.Max(rw.truth, 1)
		t.AddRow(rw.name, rw.byz, med, rw.truth, relErr)
	}
	t.Notes = append(t.Notes,
		"spanning-tree medians are log2 of the counted total; the congest protocol estimates log_d n")
	return t, nil
}

// findRoot picks the lowest-index honest vertex as the tree-count root.
func findRoot(byz []bool) int {
	if byz == nil {
		return 0
	}
	for v, b := range byz {
		if !b {
			return v
		}
	}
	return 0
}
