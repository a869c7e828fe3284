package main

// The correctness gate. Each E-index claim (DESIGN.md's experiment
// index, and the claim and notes each table prints) is written as a
// predicate over the rendered table, and each sweep cell is checked
// against the guarantee its axes promise. A predicate that fails is
// reported by name with the values that broke it; the gate never
// re-runs or reshapes a workload to make a predicate pass.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"byzcount/internal/counting"
	"byzcount/internal/expt"
)

// tableView reads a rendered table's cells by column name.
type tableView struct {
	t   *expt.Table
	col map[string]int
}

func view(t *expt.Table) tableView {
	v := tableView{t: t, col: map[string]int{}}
	for i, c := range t.Columns {
		v.col[c] = i
	}
	return v
}

// num returns row r's value in column c (NaN when absent or not a number).
func (v tableView) num(r int, c string) float64 {
	i, ok := v.col[c]
	if !ok || i >= len(v.t.Rows[r]) {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(v.t.Rows[r][i], 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func (v tableView) str(r int, c string) string {
	i, ok := v.col[c]
	if !ok || i >= len(v.t.Rows[r]) {
		return ""
	}
	return v.t.Rows[r][i]
}

// each fails unless ok holds on every row (a table with no rows fails).
func (v tableView) each(name string, ok func(r int) bool) []string {
	if len(v.t.Rows) == 0 {
		return []string{fmt.Sprintf("%s: %s: table has no rows", v.t.ID, name)}
	}
	var out []string
	for r := range v.t.Rows {
		if !ok(r) {
			out = append(out, fmt.Sprintf("%s: %s: fails on row %v", v.t.ID, name, v.t.Rows[r]))
		}
	}
	return out
}

// rowWhere returns the first row whose column c reads val, or -1.
func (v tableView) rowWhere(c, val string) int {
	for r := range v.t.Rows {
		if v.str(r, c) == val {
			return r
		}
	}
	return -1
}

// check fails with msg unless ok.
func check(id string, ok bool, msg string, args ...any) []string {
	if ok {
		return nil
	}
	return []string{fmt.Sprintf("%s: %s", id, fmt.Sprintf(msg, args...))}
}

// nonDecreasing reports whether column c never decreases down the rows
// selected by keep.
func (v tableView) nonDecreasing(c string, keep func(r int) bool) bool {
	prev := math.Inf(-1)
	for r := range v.t.Rows {
		if !keep(r) {
			continue
		}
		x := v.num(r, c)
		if !(x >= prev) {
			return false
		}
		prev = x
	}
	return true
}

func all(int) bool { return true }

// claim is one stated E-index claim as a predicate over its table. A
// failing predicate returns one message per offending row.
type claim struct {
	id    string // "E6.support-collapses"
	table string
	check func(v tableView) []string
}

// rowsWhere fails unless ok holds on every row whose column c reads val.
func (v tableView) rowsWhere(c, val, name string, ok func(r int) bool) []string {
	found := false
	var out []string
	for r := range v.t.Rows {
		if v.str(r, c) != val {
			continue
		}
		found = true
		if !ok(r) {
			out = append(out, fmt.Sprintf("%s: fails on row %v", name, v.t.Rows[r]))
		}
	}
	if !found {
		out = append(out, fmt.Sprintf("%s: no row with %s=%s", name, c, val))
	}
	return out
}

func decidedBounded(v tableView) []string {
	return v.each("decided_frac = 1 and bounded_frac >= 0.9", func(r int) bool {
		return v.num(r, "decided_frac") == 1 && v.num(r, "bounded_frac") >= 0.9
	})
}

// claims lists every predicate, table by table.
var claims = func() []claim {
	cs := []claim{
		{"E1.bounded", "E1", func(v tableView) []string {
			return v.each("attack_bounded_frac >= 0.9", func(r int) bool { return v.num(r, "attack_bounded_frac") >= 0.9 })
		}},
		{"E1.rounds-grow", "E1", func(v tableView) []string {
			return check("E1", v.nonDecreasing("rounds", all), "rounds must grow with log n")
		}},
		{"E2.tolerates", "E2", decidedBounded},
		{"E3.decides", "E3", func(v tableView) []string {
			return v.each("decided_frac = 1, every honest node in band or sacrificed, T/(B*log2^2 n) <= 1", func(r int) bool {
				return v.num(r, "decided_frac") == 1 &&
					v.num(r, "bounded_frac")+v.num(r, "sacrificed_frac") >= 0.999 &&
					v.num(r, "T/(B*log2^2 n)") <= 1
			})
		}},
		{"E4.benign-agree", "E4", func(v tableView) []string {
			return v.rowsWhere("scenario", "benign", "benign estimates within +-1 of the mode", func(r int) bool {
				return v.num(r, "frac_within_1_of_mode") >= 0.9
			})
		}},
		{"E4.spam-most-agree", "E4", func(v tableView) []string {
			return v.each("most nodes within +-1 of the mode", func(r int) bool { return v.num(r, "frac_within_1_of_mode") > 0.5 })
		}},
		{"E5.small-messages", "E5", func(v tableView) []string {
			return v.each("frac_within_1 >= 0.9 and max_msg_bits <= 1024", func(r int) bool {
				return v.num(r, "frac_within_1") >= 0.9 && v.num(r, "max_msg_bits") <= 1024
			})
		}},
		{"E6.congest-holds", "E6", func(v tableView) []string {
			return v.rowsWhere("protocol", "congest(paper)", "congest(paper) relative_error < 1", func(r int) bool {
				return v.num(r, "relative_error") < 1
			})
		}},
		{"E7.blacklist-matters", "E7", func(v tableView) []string {
			on, off := v.rowWhere("blacklist", "on"), v.rowWhere("blacklist", "off")
			return check("E7", on >= 0 && off >= 0 && v.num(off, "inflated_frac") > v.num(on, "inflated_frac"),
				"disabling the blacklist must inflate more estimates")
		}},
		{"E8.treelike-trend", "E8", func(v tableView) []string {
			var out []string
			for _, d := range []string{"8", "16"} {
				out = append(out, check("E8", v.nonDecreasing("treelike_frac", func(r int) bool { return v.str(r, "d") == d }),
					"treelike_frac must not fall as n grows (d=%s)", d)...)
			}
			return out
		}},
		{"E9.message-sizes", "E9", func(v tableView) []string {
			out := check("E9", v.nonDecreasing("local_bits_per_node", all), "LOCAL bits per node must grow with n")
			return append(out, v.each("congest_max_bits <= 1024", func(r int) bool { return v.num(r, "congest_max_bits") <= 1024 })...)
		}},
		{"E10.indistinguishable", "E10", func(v tableView) []string {
			lo, hi := math.Inf(1), math.Inf(-1)
			for r := range v.t.Rows {
				lo, hi = math.Min(lo, v.num(r, "left_mean_est")), math.Max(hi, v.num(r, "left_mean_est"))
			}
			return check("E10", len(v.t.Rows) > 1 && hi-lo <= 0.1*math.Abs(hi), "left_mean_est must be identical across rows (%g..%g)", lo, hi)
		}},
		{"E11.majority-kept", "E11", func(v tableView) []string {
			return v.rowsWhere("estimate_source", "congest_counting", "counting-seeded agreement keeps the honest majority bit", func(r int) bool {
				return v.num(r, "success_frac") > 0.5
			})
		}},
		{"E12.decides", "E12", func(v tableView) []string {
			return v.each("decided_frac = 1", func(r int) bool { return v.num(r, "decided_frac") == 1 })
		}},
		{"E12.most-bounded", "E12", func(v tableView) []string {
			return v.each("bounded_frac > 0.5", func(r int) bool { return v.num(r, "bounded_frac") > 0.5 })
		}},
		{"E13.crash-tolerated", "E13", decidedBounded},
		{"E14.benign-any-topology", "E14", func(v tableView) []string {
			return v.each("frac_within_1 >= 0.9", func(r int) bool { return v.num(r, "frac_within_1") >= 0.9 })
		}},
		{"E15.churn-tolerated", "E15", decidedBounded},
		{"E16.decides", "E16", func(v tableView) []string {
			return v.each("decided_frac = 1 and bounded_frac > 0.5", func(r int) bool {
				return v.num(r, "decided_frac") == 1 && v.num(r, "bounded_frac") > 0.5
			})
		}},
		{"E17.decides", "E17", func(v tableView) []string {
			return v.each("decided_frac = 1", func(r int) bool { return v.num(r, "decided_frac") == 1 })
		}},
		{"E18.congest-unmoved", "E18", func(v tableView) []string {
			ce, pe := e18Errors(v, "congest(paper)")
			return check("E18", ce == pe, "one Byzantine joiner must not move congest(paper) (%g vs %g)", ce, pe)
		}},
		{"E19.partial-synchrony", "E19", decidedBounded},
		{"E20.partition", "E20", func(v tableView) []string {
			out := v.each("decided_frac = 1", func(r int) bool { return v.num(r, "decided_frac") == 1 })
			return append(out, v.rowsWhere("fault", "none", "the fault-free row drops nothing", func(r int) bool {
				return v.num(r, "dropped/n") == 0
			})...)
		}},
	}
	for _, p := range []string{"geometric", "support", "birthday-kmv", "return-walk", "spanning-tree"} {
		cs = append(cs,
			claim{"E6." + p + "-exact", "E6", func(v tableView) []string {
				return v.rowsWhere("protocol", p, p+" is exact benignly (relative_error <= 0.25)", func(r int) bool {
					return v.num(r, "byz") > 0 || v.num(r, "relative_error") <= 0.25
				})
			}},
			claim{"E6." + p + "-collapses", "E6", func(v tableView) []string {
				return v.rowsWhere("protocol", p, p+" collapses under attack (relative_error >= 1)", func(r int) bool {
					e := v.num(r, "relative_error")
					return v.num(r, "byz") == 0 || math.IsNaN(e) || e >= 1
				})
			}})
	}
	for _, p := range []string{"geometric", "support", "birthday-kmv"} {
		cs = append(cs, claim{"E18." + p + "-poisoned", "E18", func(v tableView) []string {
			ce, pe := e18Errors(v, p)
			return check("E18", pe > ce, "one Byzantine joiner must poison %s (%g vs %g)", p, pe, ce)
		}})
	}
	return cs
}()

// e18Errors returns protocol p's relative error without and with the
// Byzantine joiner (NaN when a row is missing).
func e18Errors(v tableView, p string) (clean, poisoned float64) {
	clean, poisoned = math.NaN(), math.NaN()
	for r := range v.t.Rows {
		if v.str(r, "protocol") != p {
			continue
		}
		switch v.str(r, "byz_joiners") {
		case "0":
			clean = v.num(r, "relative_error")
		case "1":
			poisoned = v.num(r, "relative_error")
		}
	}
	return clean, poisoned
}

// reportedOnly lists the claims the gate evaluates and prints but does
// not count as failures: each failed on some of seeds 1-230 at Quick
// scale (one trial, n <= 512) before this benchmark existed, so it is a
// statistical tendency there, not a guarantee. README.md gives the
// counts.
var reportedOnly = map[string]bool{
	"E1.rounds-grow":            true,
	"E4.spam-most-agree":        true,
	"E6.geometric-exact":        true,
	"E6.return-walk-collapses":  true,
	"E11.majority-kept":         true,
	"E14.benign-any-topology":   true,
	"E12.most-bounded":          true,
	"E18.birthday-kmv-poisoned": true,
	"E18.congest-unmoved":       true,
	"E18.geometric-poisoned":    true,
	"E18.support-poisoned":      true,
}

// tableVerdict runs every claim on table t. Failures of gating claims
// come back in failed, failures of reported-only claims in reported.
func tableVerdict(t *expt.Table) (failed, reported []string) {
	v := view(t)
	seen := false
	for _, c := range claims {
		if c.table != t.ID {
			continue
		}
		seen = true
		for _, msg := range c.check(v) {
			line := c.id + ": " + strings.TrimPrefix(msg, t.ID+": ")
			if reportedOnly[c.id] {
				reported = append(reported, line)
			} else {
				failed = append(failed, line)
			}
		}
	}
	if !seen {
		failed = append(failed, t.ID+": no claim registered")
	}
	return failed, reported
}

// checkCell states what one matrix cell's axes promise. Every cell must
// have all honest nodes decided. CONGEST cells must keep at least 90%
// of honest nodes in the log_d band when benign, silent or crashing
// (faults strictly weaker than Byzantine), and under beacon spam must
// keep the median estimate in band and a majority of nodes with it.
// The static kmv and support baselines are exact benignly: their median
// estimate is log2 n within one.
func checkCell(sc expt.Scenario, v [numVals]float64) error {
	if v[valDecided] != 1 {
		return fmt.Errorf("decided_frac %g != 1", v[valDecided])
	}
	logd := counting.LogD(sc.N, sc.D)
	inBand := v[valMedian] >= 0.5*logd && v[valMedian] <= 2*logd+2
	switch {
	case sc.Proto == "congest" && sc.Adversary == "spam":
		if !(v[valBounded] > 0.5 && inBand) {
			return fmt.Errorf("under spam: bounded_frac %g <= 0.5 or median %g outside [%.3g, %.3g]",
				v[valBounded], v[valMedian], 0.5*logd, 2*logd+2)
		}
	case sc.Proto == "congest":
		if v[valBounded] < 0.9 {
			return fmt.Errorf("bounded_frac %g < 0.9", v[valBounded])
		}
	case (sc.Proto == "kmv" || sc.Proto == "support") && !sc.Churn.Active():
		if l := math.Log2(float64(sc.N)); math.Abs(v[valMedian]-l) > 1 {
			return fmt.Errorf("median %g is not within 1 of log2 n = %g", v[valMedian], l)
		}
	}
	return nil
}
