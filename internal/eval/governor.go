package eval

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlpp/internal/value"
)

// The per-query resource governor. The paper's permissive vs.
// stop-on-error modes (§IV) turn dynamic *type* errors into well-defined
// per-query outcomes; the governor extends the same discipline to
// *resource* errors. Every site that materializes state — hash-join
// builds, GROUP BY content, ORDER BY buffers, window partitions,
// DISTINCT keys, hoisted sources — and every site that emits an output
// row charges its budget here, and exceeding a budget aborts that one
// query with a typed ResourceError instead of exhausting the process.
//
// The nil-governor fast path mirrors the StatsSink contract: each charge
// site is guarded by a single pointer test, so an ungoverned execution
// pays one predictable branch and nothing else. Counters are atomics —
// the workers of a parallel scan share one Governor through Context.Fork
// and charge it concurrently.

// Limits configures the per-query budgets; zero fields are unlimited,
// and the zero value disables the governor entirely.
type Limits struct {
	// MaxOutputRows bounds rows materialized into result sinks, summed
	// over every query block (subqueries included).
	MaxOutputRows int64
	// MaxMaterializedValues bounds intermediate values buffered by
	// blocking operators: hash-join build rows, GROUP BY content tuples,
	// window partitions, DISTINCT keys, set-operation inputs, hoisted
	// sources.
	MaxMaterializedValues int64
	// MaxMaterializedBytes bounds the approximate bytes (value.ApproxSize)
	// of output rows plus materialized intermediate values.
	MaxMaterializedBytes int64
	// MaxDepth bounds query-block nesting (subqueries, GROUP AS
	// re-querying, WITH bodies).
	MaxDepth int
	// MaxWallTime bounds execution wall time, checked at the same
	// cooperative poll sites as cancellation.
	MaxWallTime time.Duration
}

// Unlimited reports whether every budget is absent.
func (l Limits) Unlimited() bool { return l == Limits{} }

// ResourceKind names which budget a ResourceError exceeded.
type ResourceKind string

// The budget kinds, machine-readable through ResourceError.Kind.
const (
	ResourceRows   ResourceKind = "output-rows"
	ResourceValues ResourceKind = "materialized-values"
	ResourceBytes  ResourceKind = "materialized-bytes"
	ResourceDepth  ResourceKind = "nesting-depth"
	ResourceTime   ResourceKind = "wall-time"
)

// ResourceError reports a query aborted by the governor. It is a
// per-query failure: the engine and any other in-flight queries are
// unaffected. Match it with errors.As.
type ResourceError struct {
	// Kind is the exceeded budget.
	Kind ResourceKind
	// Site names the operator that charged past the budget ("select",
	// "hash-build", "group-by", "order-by", "window", "distinct",
	// "set-op", "hoist", "block").
	Site string
	// Limit is the configured budget; Observed the amount that tripped
	// it (for wall time, nanoseconds).
	Limit, Observed int64
}

// Error implements the error interface.
func (e *ResourceError) Error() string {
	if e.Kind == ResourceTime {
		return fmt.Sprintf("sqlpp: resource limit exceeded: %s at %s: %s over budget %s",
			e.Kind, e.Site, time.Duration(e.Observed), time.Duration(e.Limit))
	}
	return fmt.Sprintf("sqlpp: resource limit exceeded: %s at %s: %d over budget %d",
		e.Kind, e.Site, e.Observed, e.Limit)
}

// Governor enforces one query execution's Limits. Create one per
// execution with NewGovernor and install it in the Context; nil (the
// result for unlimited Limits) disables all accounting.
type Governor struct {
	lim Limits
	// deadline is the wall-time budget's expiry; zero when unbudgeted.
	deadline time.Time
	start    time.Time

	rows   atomic.Int64
	values atomic.Int64
	bytes  atomic.Int64
}

// NewGovernor returns a governor enforcing lim, or nil when lim is
// unlimited — callers install the result directly and every charge site
// takes the fast path.
func NewGovernor(lim Limits) *Governor {
	if lim.Unlimited() {
		return nil
	}
	g := &Governor{lim: lim, start: time.Now()}
	if lim.MaxWallTime > 0 {
		g.deadline = g.start.Add(lim.MaxWallTime)
	}
	return g
}

// ChargeOutput charges n output rows plus, when a byte budget is set,
// the approximate size of v (which may be nil for row-count-only
// charges).
func (g *Governor) ChargeOutput(site string, n int64, v value.Value) error {
	if g.lim.MaxOutputRows > 0 {
		if got := g.rows.Add(n); got > g.lim.MaxOutputRows {
			return &ResourceError{Kind: ResourceRows, Site: site, Limit: g.lim.MaxOutputRows, Observed: got}
		}
	}
	return g.chargeBytes(site, v)
}

// ChargeValues charges n materialized intermediate values plus, when a
// byte budget is set, the approximate size of v (nil for count-only
// charges).
func (g *Governor) ChargeValues(site string, n int64, v value.Value) error {
	if g.lim.MaxMaterializedValues > 0 {
		if got := g.values.Add(n); got > g.lim.MaxMaterializedValues {
			return &ResourceError{Kind: ResourceValues, Site: site, Limit: g.lim.MaxMaterializedValues, Observed: got}
		}
	}
	return g.chargeBytes(site, v)
}

// ChargeBindings charges one materialized row holding vals (a hash-join
// build row's variables).
func (g *Governor) ChargeBindings(site string, vals []value.Value) error {
	if g.lim.MaxMaterializedValues > 0 {
		if got := g.values.Add(1); got > g.lim.MaxMaterializedValues {
			return &ResourceError{Kind: ResourceValues, Site: site, Limit: g.lim.MaxMaterializedValues, Observed: got}
		}
	}
	if g.lim.MaxMaterializedBytes > 0 {
		var sz int64
		// ctxpoll: vals is one row's bindings — bounded by the query's
		// variable count, not the data; the byte charge below is the poll.
		for _, v := range vals {
			sz += value.ApproxSize(v)
		}
		if got := g.bytes.Add(sz); got > g.lim.MaxMaterializedBytes {
			return &ResourceError{Kind: ResourceBytes, Site: site, Limit: g.lim.MaxMaterializedBytes, Observed: got}
		}
	}
	return nil
}

// BindingsLeft bounds how many more rows of width (>= 1) values
// ChargeBindings admits, or returns -1 when neither the values nor the
// bytes budget is set. A build presizes to it, so one the governor stops
// at row k allocates for k rows, not for its whole source.
func (g *Governor) BindingsLeft(width int) int64 {
	left := int64(-1)
	if g.lim.MaxMaterializedValues > 0 {
		left = max(g.lim.MaxMaterializedValues-g.values.Load(), 0)
	}
	if g.lim.MaxMaterializedBytes > 0 {
		// Each bound value charges at least value.MinApproxSize bytes.
		rowMin := value.MinApproxSize * int64(width)
		if b := max(g.lim.MaxMaterializedBytes-g.bytes.Load(), 0) / rowMin; left < 0 || b < left {
			left = b
		}
	}
	return left
}

// chargeBytes accrues v's approximate size against the byte budget.
// Sizing walks the value, so it runs only when a byte budget exists.
func (g *Governor) chargeBytes(site string, v value.Value) error {
	if g.lim.MaxMaterializedBytes <= 0 || v == nil {
		return nil
	}
	if got := g.bytes.Add(value.ApproxSize(v)); got > g.lim.MaxMaterializedBytes {
		return &ResourceError{Kind: ResourceBytes, Site: site, Limit: g.lim.MaxMaterializedBytes, Observed: got}
	}
	return nil
}

// CheckDepth verifies a query block may open at the given nesting depth.
func (g *Governor) CheckDepth(depth int) error {
	if g.lim.MaxDepth > 0 && depth > g.lim.MaxDepth {
		return &ResourceError{Kind: ResourceDepth, Site: "block", Limit: int64(g.lim.MaxDepth), Observed: int64(depth)}
	}
	return nil
}

// CheckTime verifies the wall-time budget; polled at the same sites as
// cancellation (Context.Interrupted).
func (g *Governor) CheckTime() error {
	if g.deadline.IsZero() {
		return nil
	}
	if now := time.Now(); now.After(g.deadline) {
		return &ResourceError{Kind: ResourceTime, Site: "query",
			Limit: int64(g.lim.MaxWallTime), Observed: int64(now.Sub(g.start))}
	}
	return nil
}

// Usage reports the charged totals (tests and diagnostics).
func (g *Governor) Usage() (rows, values, bytes int64) {
	return g.rows.Load(), g.values.Load(), g.bytes.Load()
}
