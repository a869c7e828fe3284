package main

// In-memory span recording for the traced run. Spans are recorded from
// the benchmark's own files, around the calls it makes into each
// layer; the program itself carries no instrumentation. Each cell owns
// a cellTrace, written by exactly one goroutine at a time, so recording
// takes no locks; the traces are merged and written out when the
// benchmark ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one recorded interval. Start and End are nanoseconds since
// the trace epoch; Parent is -1 for a root span. Cell is the sweep cell
// id ("label#trial"), empty for workload-level spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer hands out span ids and collects finished cell traces.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// cellTrace records the spans of one cell (or of one workload pass)
// with local ids; adopt renumbers them into the tracer.
type cellTrace struct {
	t     *tracer
	cell  string
	spans []span
	open  []int // stack of open local span indices
	// parent is the tracer-level id every local root span hangs from.
	parent int
}

func (t *tracer) cell(id string, parent int) *cellTrace {
	return &cellTrace{t: t, cell: id, parent: parent}
}

// begin opens a span nested in the innermost open one.
func (c *cellTrace) begin(name string) int {
	parent := -1
	if len(c.open) > 0 {
		parent = c.open[len(c.open)-1]
	}
	c.spans = append(c.spans, span{ID: len(c.spans), Parent: parent, Name: name, Cell: c.cell, Start: c.t.now()})
	c.open = append(c.open, len(c.spans)-1)
	return len(c.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (c *cellTrace) end(i int) {
	if n := len(c.open); n == 0 || c.open[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", c.spans[i].Name))
	}
	c.open = c.open[:len(c.open)-1]
	c.spans[i].End = c.t.now()
}

// add records an already-timed span under the local span parent.
func (c *cellTrace) add(parent int, name string, start, end int64) {
	c.spans = append(c.spans, span{ID: len(c.spans), Parent: parent, Name: name, Cell: c.cell, Start: start, End: end})
}

// adopt moves a finished cell trace into the tracer, renumbering ids.
// It returns the tracer-level id of the cell's first span.
func (t *tracer) adopt(c *cellTrace) int {
	if len(c.open) > 0 {
		panic(fmt.Sprintf("perfbench: cell %q adopted with %d open spans", c.cell, len(c.open)))
	}
	base := len(t.spans)
	for _, s := range c.spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = c.parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	return base
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (children may overlap, as
// concurrent cells under one workload span do, so their intervals are
// merged before subtracting).
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// nameSummary is the per-span-name aggregate the summarizer prints.
type nameSummary struct {
	Name        string
	Count       int
	Total, Self int64
}

// summarize aggregates total and self time per span name, ordered by
// self time, largest first.
func (t *tracer) summarize() []nameSummary {
	self := t.selfTimes()
	idx := map[string]int{}
	var out []nameSummary
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, nameSummary{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.dur()
		out[j].Self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

func printSummary(w io.Writer, sums []nameSummary) {
	fmt.Fprintf(w, "%-22s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range sums {
		fmt.Fprintf(w, "%-22s %9d %12.3f %12.3f\n", s.Name, s.Count, float64(s.Total)/1e6, float64(s.Self)/1e6)
	}
}

// root opens a workload-level span directly in the tracer; cells adopt
// under its id. closeRoot ends it.
func (t *tracer) root(name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) closeRoot(id int) { t.spans[id].End = t.now() }
