package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EXPLAIN ANALYZE instrumentation. When Context.Stats is non-nil, the
// plan's physical operators record rows in/out, wall time, and
// operator-specific counters into a tree of StatsNodes that mirrors the
// plan shape: query blocks nest for subqueries, and within a block the
// operators appear in pipeline order (FROM steps with their pushed
// filters, residual WHERE, GROUP BY, HAVING, windows, DISTINCT,
// ORDER BY / top-K, LIMIT).
//
// The nil-sink fast path: every instrumentation site is guarded by a
// single pointer test, so an uninstrumented execution pays one
// predictable branch per site and allocates nothing. When instrumentation
// is on, the hot-path counters are atomics — the workers of a parallel
// scan share one node per operator and fold into it concurrently.

// ParentNode is the node new operators attach under: the enclosing
// block's node, or the sink root for the top-level expression. Callers
// must have checked Stats != nil.
func (c *Context) ParentNode() *StatsNode {
	if c.StatsParent != nil {
		return c.StatsParent
	}
	return c.Stats.Root
}

// StatsNode is one operator's live counters in the stats tree.
type StatsNode struct {
	// Op names the physical operator: "scan", "unpivot", "join",
	// "hash-join", "filter", "group-by", "distinct", "order-by", "top-k",
	// "limit", "window", "select", "set-op", "pivot", "query".
	Op string
	// Label distinguishes instances: the binding variable of a scan, the
	// role of a filter ("pushed", "where", "residual", "pre", "having"),
	// the position of a block.
	Label string

	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	nanos   atomic.Int64

	mu       sync.Mutex
	extras   []statsCounter
	children []*StatsNode
}

type statsCounter struct {
	name string
	val  *atomic.Int64
}

// AddIn counts rows flowing into the operator.
func (n *StatsNode) AddIn(d int64) { n.rowsIn.Add(d) }

// AddOut counts rows the operator emitted.
func (n *StatsNode) AddOut(d int64) { n.rowsOut.Add(d) }

// SetOut overwrites the emitted-row count; the parallel merge uses it to
// replace per-worker sums with the globally correct value.
func (n *StatsNode) SetOut(v int64) { n.rowsOut.Store(v) }

// AddNanos accrues wall time attributed to the operator.
func (n *StatsNode) AddNanos(d int64) { n.nanos.Add(d) }

// Timer starts attributing wall time to n; call the returned stop
// function when the timed phase ends.
func (n *StatsNode) Timer() func() {
	start := time.Now()
	return func() { n.nanos.Add(int64(time.Since(start))) }
}

// Counter returns the operator-specific counter with the given name,
// creating it on first use. Hot paths should resolve the pointer once
// and keep it; the lookup takes the node lock.
func (n *StatsNode) Counter(name string) *atomic.Int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.extras {
		if c.name == name {
			return c.val
		}
	}
	v := new(atomic.Int64)
	n.extras = append(n.extras, statsCounter{name: name, val: v})
	return v
}

// StatsSink collects the stats tree of one instrumented execution. Nodes
// are keyed by plan position (an AST or physical-plan pointer plus a
// role), so repeated invocations of the same operator — a correlated
// subquery re-run per outer row, the workers of a parallel scan — all
// accumulate into one node.
type StatsSink struct {
	// Root anchors the tree; the top-level query expression's node is its
	// first child.
	Root *StatsNode

	mu    sync.Mutex
	index map[sinkKey]*StatsNode
}

type sinkKey struct {
	owner any
	role  string
}

// NewStatsSink returns an empty sink ready to be installed in a Context.
func NewStatsSink() *StatsSink {
	return &StatsSink{Root: &StatsNode{Op: "query"}, index: map[sinkKey]*StatsNode{}}
}

// Node returns the tree node for (owner, role), creating it as a child
// of parent on first use. On a hit the parent argument is ignored, which
// is what lets the plan pre-create a block's skeleton in pipeline order
// and have the execution-time lookups land on the same nodes.
func (s *StatsSink) Node(parent *StatsNode, owner any, role, op, label string) *StatsNode {
	k := sinkKey{owner: owner, role: role}
	s.mu.Lock()
	if n, ok := s.index[k]; ok {
		s.mu.Unlock()
		return n
	}
	n := &StatsNode{Op: op, Label: label}
	s.index[k] = n
	s.mu.Unlock()
	parent.mu.Lock()
	parent.children = append(parent.children, n)
	parent.mu.Unlock()
	return n
}

// StatsSnapshot is an immutable copy of a stats tree: the JSON/wire form
// of EXPLAIN ANALYZE.
type StatsSnapshot struct {
	Op       string           `json:"op"`
	Label    string           `json:"label,omitempty"`
	RowsIn   int64            `json:"rows_in"`
	RowsOut  int64            `json:"rows_out"`
	TimeNS   int64            `json:"time_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*StatsSnapshot `json:"children,omitempty"`
}

// Snapshot copies the subtree rooted at n.
func (n *StatsNode) Snapshot() *StatsSnapshot {
	s := &StatsSnapshot{
		Op:      n.Op,
		Label:   n.Label,
		RowsIn:  n.rowsIn.Load(),
		RowsOut: n.rowsOut.Load(),
		TimeNS:  n.nanos.Load(),
	}
	n.mu.Lock()
	if len(n.extras) > 0 {
		s.Counters = make(map[string]int64, len(n.extras))
		for _, c := range n.extras {
			s.Counters[c.name] = c.val.Load()
		}
	}
	children := make([]*StatsNode, len(n.children))
	copy(children, n.children)
	n.mu.Unlock()
	for _, c := range children {
		s.Children = append(s.Children, c.Snapshot())
	}
	return s
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
