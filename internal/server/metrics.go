package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlpp"
)

// Metrics aggregates the service counters exposed at GET /metrics. All
// counters are monotonic and lock-free; the latency percentiles come
// from a fixed ring of recent observations so they track current load
// rather than the process lifetime.
type Metrics struct {
	Requests atomic.Uint64 // query requests received
	Errors   atomic.Uint64 // query requests that failed (any status >= 400)
	Timeouts atomic.Uint64 // queries stopped by deadline or client cancel
	Rejected atomic.Uint64 // requests whose own deadline fired while queued
	Shed     atomic.Uint64 // requests shed after the bounded queue wait (429)
	Governed atomic.Uint64 // queries aborted by a governor resource budget
	Panics   atomic.Uint64 // recovered query panics (contained, served 500)
	Ingests  atomic.Uint64 // collection ingests accepted

	// VetWarnings counts warning-severity diagnostics returned to
	// clients that requested static analysis ("vet": true). A climbing
	// rate flags a workload drifting toward queries that silently
	// produce MISSING.
	VetWarnings atomic.Uint64

	// The plan cache's literal templates (see Server.plan): templates
	// admitted on their second sighting, templates found literal-only
	// there, and template hits whose cost guards failed and re-planned
	// cold. Together they say why a text that differs from a cached one
	// only in a number missed.
	TemplatesAdmitted    atomic.Uint64
	TemplatesLiteralOnly atomic.Uint64
	TemplateReplans      atomic.Uint64

	lat latencyRing

	// ops aggregates EXPLAIN ANALYZE trees by operator type: every
	// instrumented query's per-operator rows and times fold into these
	// running totals, exposed as sqlpp_op_* gauges.
	opMu sync.Mutex
	ops  map[string]*opAgg
}

// opAgg is one operator type's running totals across instrumented
// queries.
type opAgg struct {
	observations int64 // operator nodes folded in
	rowsIn       int64
	rowsOut      int64
	timeNS       int64
}

// Observe records one successful query's end-to-end latency.
func (m *Metrics) Observe(d time.Duration) { m.lat.observe(d) }

// ObserveOps folds an EXPLAIN ANALYZE tree into the per-operator
// totals.
func (m *Metrics) ObserveOps(root *sqlpp.OpStats) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	if m.ops == nil {
		m.ops = map[string]*opAgg{}
	}
	root.Walk(func(s *sqlpp.OpStats) {
		a := m.ops[s.Op]
		if a == nil {
			a = &opAgg{}
			m.ops[s.Op] = a
		}
		a.observations++
		a.rowsIn += s.RowsIn
		a.rowsOut += s.RowsOut
		a.timeNS += s.TimeNS
	})
}

// ringSize is the latency window: large enough for stable p99 under
// load, small enough that one burst ages out quickly.
const ringSize = 1024

type latencyRing struct {
	mu  sync.Mutex
	buf [ringSize]time.Duration
	n   int // filled slots, saturates at ringSize
	idx int // next write position
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % ringSize
	if r.n < ringSize {
		r.n++
	}
	r.mu.Unlock()
}

// percentiles returns the requested quantiles (in [0,1]) over the
// window using nearest-rank on a sorted snapshot; zeros when nothing
// has been observed yet.
func (r *latencyRing) percentiles(qs ...float64) []time.Duration {
	r.mu.Lock()
	snap := make([]time.Duration, r.n)
	copy(snap, r.buf[:r.n])
	r.mu.Unlock()

	out := make([]time.Duration, len(qs))
	if len(snap) == 0 {
		return out
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	for i, q := range qs {
		k := int(q * float64(len(snap)))
		if k >= len(snap) {
			k = len(snap) - 1
		}
		out[i] = snap[k]
	}
	return out
}

// WriteTo renders the counters in the plain-text `name value` format
// (one gauge per line, Prometheus-style naming) together with the
// cache and gate gauges supplied by the server.
func (m *Metrics) WriteTo(w io.Writer, cacheHits, cacheMisses uint64, cacheEntries int, inflight, waiting int64, draining bool) {
	p := m.lat.percentiles(0.50, 0.95, 0.99)
	fmt.Fprintf(w, "sqlpp_requests_total %d\n", m.Requests.Load())
	fmt.Fprintf(w, "sqlpp_errors_total %d\n", m.Errors.Load())
	fmt.Fprintf(w, "sqlpp_timeouts_total %d\n", m.Timeouts.Load())
	fmt.Fprintf(w, "sqlpp_rejected_total %d\n", m.Rejected.Load())
	fmt.Fprintf(w, "sqlpp_shed_total %d\n", m.Shed.Load())
	fmt.Fprintf(w, "sqlpp_governed_total %d\n", m.Governed.Load())
	fmt.Fprintf(w, "sqlpp_panics_total %d\n", m.Panics.Load())
	fmt.Fprintf(w, "sqlpp_ingests_total %d\n", m.Ingests.Load())
	fmt.Fprintf(w, "sqlpp_vet_warnings_total %d\n", m.VetWarnings.Load())
	fmt.Fprintf(w, "sqlpp_plan_cache_hits_total %d\n", cacheHits)
	fmt.Fprintf(w, "sqlpp_plan_cache_misses_total %d\n", cacheMisses)
	fmt.Fprintf(w, "sqlpp_plan_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(w, "sqlpp_plan_cache_templates_admitted_total %d\n", m.TemplatesAdmitted.Load())
	fmt.Fprintf(w, "sqlpp_plan_cache_templates_literal_only_total %d\n", m.TemplatesLiteralOnly.Load())
	fmt.Fprintf(w, "sqlpp_plan_cache_template_replans_total %d\n", m.TemplateReplans.Load())
	fmt.Fprintf(w, "sqlpp_inflight_queries %d\n", inflight)
	fmt.Fprintf(w, "sqlpp_waiting_queries %d\n", waiting)
	// queue_depth aliases waiting_queries under the name the
	// backpressure docs use: the admission-gate backlog that drives the
	// dynamic Retry-After hint.
	fmt.Fprintf(w, "sqlpp_queue_depth %d\n", waiting)
	drainingGauge := 0
	if draining {
		drainingGauge = 1
	}
	fmt.Fprintf(w, "sqlpp_draining %d\n", drainingGauge)
	fmt.Fprintf(w, "sqlpp_latency_p50_us %d\n", p[0].Microseconds())
	fmt.Fprintf(w, "sqlpp_latency_p95_us %d\n", p[1].Microseconds())
	fmt.Fprintf(w, "sqlpp_latency_p99_us %d\n", p[2].Microseconds())

	m.opMu.Lock()
	names := make([]string, 0, len(m.ops))
	for name := range m.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := m.ops[name]
		id := strings.ReplaceAll(name, "-", "_")
		fmt.Fprintf(w, "sqlpp_op_%s_observations_total %d\n", id, a.observations)
		fmt.Fprintf(w, "sqlpp_op_%s_rows_in_total %d\n", id, a.rowsIn)
		fmt.Fprintf(w, "sqlpp_op_%s_rows_out_total %d\n", id, a.rowsOut)
		fmt.Fprintf(w, "sqlpp_op_%s_time_us_total %d\n", id, a.timeNS/1000)
	}
	m.opMu.Unlock()
}
