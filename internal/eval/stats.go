package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Operator counts. Every execution counts what its operators do: the
// run state that executes an operator (package plan's block run states,
// a set operation's OpCounts) holds its counts as plain fields, so a
// count is one increment with no test and no atomic. Wall time is the
// one figure taken only under EXPLAIN ANALYZE (Context.Analyze), once
// per phase — a block, a scan call, a hash build, a sort — never per
// row. EXPLAIN ANALYZE is then a timed run followed by rendering the
// plan over those counts (plan.Explain) into a StatsSnapshot.

// Rows are one operator's row counts in one run state: the rows that
// flowed in and out.
type Rows struct {
	In, Out int64
}

// Add adds o's counts to r's.
func (r *Rows) Add(o Rows) {
	r.In += o.In
	r.Out += o.Out
}

// OpCounts are a timed operator's counts: its rows and, under EXPLAIN
// ANALYZE, its wall time.
type OpCounts struct {
	Rows
	Nanos int64
}

// Add adds o's counts to c's.
func (c *OpCounts) Add(o OpCounts) {
	c.Rows.Add(o.Rows)
	c.Nanos += o.Nanos
}

// clockBase anchors Clock's monotonic readings.
var clockBase = time.Now()

// Clock starts a timed phase: a monotonic reading in nanoseconds under
// EXPLAIN ANALYZE, 0 otherwise. Pair it with Time, as in
// defer ctx.Time(&counts.Nanos, ctx.Clock()).
func (c *Context) Clock() int64 {
	if !c.Analyze {
		return 0
	}
	return int64(time.Since(clockBase))
}

// Time ends a phase Clock started, adding its wall time to *nanos under
// EXPLAIN ANALYZE.
func (c *Context) Time(nanos *int64, start int64) {
	if c.Analyze {
		*nanos += int64(time.Since(clockBase)) - start
	}
}

// StatsSnapshot is one operator's node in an EXPLAIN ANALYZE tree: the
// JSON/wire form of its counts, with the operators it feeds from as
// children.
type StatsSnapshot struct {
	// Op names the physical operator: "scan", "unpivot", "join",
	// "hash-join", "filter", "group-by", "distinct", "order-by", "top-k",
	// "limit", "window", "select", "set-op", "pivot", "query".
	Op string `json:"op"`
	// Label distinguishes instances: the binding variable of a scan, the
	// role of a filter ("pushed", "where", "residual", "pre", "having"),
	// the position of a block.
	Label    string           `json:"label,omitempty"`
	RowsIn   int64            `json:"rows_in"`
	RowsOut  int64            `json:"rows_out"`
	TimeNS   int64            `json:"time_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*StatsSnapshot `json:"children,omitempty"`
}

// Walk visits s and every descendant in depth-first order.
func (s *StatsSnapshot) Walk(fn func(*StatsSnapshot)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Render formats the tree as indented text, one operator per line.
// redactTimes omits the wall-time column, which is what lets golden
// tests assert the exact tree while times vary run to run.
func (s *StatsSnapshot) Render(redactTimes bool) string {
	var sb strings.Builder
	s.render(&sb, 0, redactTimes)
	return sb.String()
}

func (s *StatsSnapshot) render(sb *strings.Builder, depth int, redactTimes bool) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(s.Op)
	if s.Label != "" {
		fmt.Fprintf(sb, "(%s)", s.Label)
	}
	fmt.Fprintf(sb, " in=%d out=%d", s.RowsIn, s.RowsOut)
	if !redactTimes {
		fmt.Fprintf(sb, " time=%s", time.Duration(s.TimeNS))
	}
	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for name := range s.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(sb, " %s=%d", name, s.Counters[name])
		}
	}
	sb.WriteByte('\n')
	for _, c := range s.Children {
		c.render(sb, depth+1, redactTimes)
	}
}
