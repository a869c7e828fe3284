// Package expt is the experiment harness of the reproduction: one
// runner per experiment E1-E20 (see DESIGN.md for the experiment index
// mapping each to a claim of the paper), the concurrent sweep driver
// they share, and the scenario-composition layer (scenario.go) that
// makes protocol x substrate x adversary x placement x churn an
// enumerable grid (matrix.go). Most runners describe each cell as a
// Scenario and run it with RunScenario; E1, E7, E9, E10 and E11 still
// wire their engines through runProtocol (runners.go). Each runner
// sweeps its parameters and returns a Table whose rows are the series
// the paper's claims predict.
package expt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"byzcount/internal/report"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	Seed uint64
	// Trials is the number of independent repetitions per row (default 3).
	Trials int
	// Quick shrinks the sweep for benchmarks and smoke tests.
	Quick bool
	// Parallel bounds how many (row, trial) cells the sweep driver runs
	// concurrently. 0 (the default) means GOMAXPROCS; 1 forces serial
	// execution. Tables are byte-identical for every value: each cell's
	// randomness is a pure sub-seed of (Seed, row label, trial index)
	// and rows are collected in deterministic order.
	Parallel int
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

func (c Config) parallel() int {
	if c.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallel
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being exercised
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are Sprint-formatted.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as CSV (without title/claim/notes) for external
// plotting tools.
func (t *Table) CSV() string {
	return report.CSV(t.Columns, t.Rows)
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// Registry maps experiment IDs to runners.
var Registry = map[string]Runner{
	"E1":  E1,
	"E2":  E2,
	"E3":  E3,
	"E4":  E4,
	"E5":  E5,
	"E6":  E6,
	"E7":  E7,
	"E8":  E8,
	"E9":  E9,
	"E10": E10,
	"E11": E11,
	"E12": E12,
	"E13": E13,
	"E14": E14,
	"E15": E15,
	"E16": E16,
	"E17": E17,
	"E18": E18,
	"E19": E19,
	"E20": E20,
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}
