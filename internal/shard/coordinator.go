package shard

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlpp"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/plan"
	"sqlpp/internal/value"
)

// Coordinator owns a fleet of shard executors plus a local engine for
// unsharded collections, and runs queries across them with the
// scatter-gather decomposition and the fault-tolerance policy. A
// Coordinator is safe for concurrent queries; Distribute/Broadcast
// require the same external coordination as Engine.Register.
type Coordinator struct {
	engine *sqlpp.Engine
	execs  []Executor
	policy Policy
	jitter *jitterSource

	mu    sync.RWMutex
	specs map[string]Spec

	breakers []*breaker
	tele     []*shardTelemetry

	planMu    sync.Mutex
	planCache map[string]*scatterPlan
}

// shardTelemetry accumulates one shard's fault-tolerance counters over
// the coordinator's lifetime.
type shardTelemetry struct {
	retries atomic.Int64
	hedges  atomic.Int64
}

// Telemetry is one shard's cumulative fault-tolerance counters, for
// metrics export.
type Telemetry struct {
	// Shard names the executor.
	Shard string
	// Retries counts retried attempts across all queries.
	Retries int64
	// Hedges counts hedged (duplicate) attempts launched for stragglers.
	Hedges int64
	// BreakerOpen reports whether the circuit breaker currently rejects
	// calls.
	BreakerOpen bool
	// BreakerOpens counts closed→open transitions.
	BreakerOpens int64
}

// NewCoordinator wraps engine (the coordinator-local catalog) and the
// shard executors under policy.
// governor:bounded by the shard count (one breaker/telemetry slot per executor)
func NewCoordinator(engine *sqlpp.Engine, policy Policy, execs ...Executor) *Coordinator {
	c := &Coordinator{
		engine:    engine,
		execs:     execs,
		policy:    policy.filled(),
		jitter:    newJitterSource(policy.Seed),
		specs:     map[string]Spec{},
		planCache: map[string]*scatterPlan{},
	}
	for range execs {
		c.breakers = append(c.breakers, &breaker{})
		c.tele = append(c.tele, &shardTelemetry{})
	}
	return c
}

// NewLocalCluster builds a coordinator over n in-process shard engines
// named s0…s<n-1>, each created with opts — the single-binary topology
// and the benchmark/test substrate.
func NewLocalCluster(n int, opts *sqlpp.Options, policy Policy) *Coordinator {
	execs := make([]Executor, n)
	for i := range execs {
		execs[i] = NewLocal("s"+strconv.Itoa(i), sqlpp.New(opts))
	}
	return NewCoordinator(sqlpp.New(opts), policy, execs...)
}

// Engine exposes the coordinator-local engine (unsharded registrations,
// options).
func (c *Coordinator) Engine() *sqlpp.Engine { return c.engine }

// Shards lists the shard executor names in shard order.
func (c *Coordinator) Shards() []string {
	out := make([]string, len(c.execs))
	for i, x := range c.execs {
		out[i] = x.Name()
	}
	return out
}

// Policy returns the coordinator's fault-tolerance policy.
func (c *Coordinator) Policy() Policy { return c.policy }

// Specs lists the sharded-collection specs.
// governor:bounded by the number of sharded collections (catalog-sized, set at Distribute time)
func (c *Coordinator) Specs() []Spec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Spec, 0, len(c.specs))
	for _, s := range c.specs {
		out = append(out, s)
	}
	return out
}

// Telemetry reports per-shard fault-tolerance counters (no I/O; safe on
// the metrics path).
func (c *Coordinator) Telemetry() []Telemetry {
	out := make([]Telemetry, len(c.execs))
	for i, x := range c.execs {
		out[i] = Telemetry{
			Shard:        x.Name(),
			Retries:      c.tele[i].retries.Load(),
			Hedges:       c.tele[i].hedges.Load(),
			BreakerOpen:  c.breakers[i].isOpen(),
			BreakerOpens: c.breakers[i].openCount(),
		}
	}
	return out
}

// Ready probes every shard concurrently and reports per-shard errors
// (nil entries are ready). An open circuit breaker counts as unready
// without contacting the shard.
func (c *Coordinator) Ready(ctx context.Context) map[string]error {
	out := make([]error, len(c.execs))
	var wg sync.WaitGroup
	for i, x := range c.execs {
		if c.breakers[i].isOpen() {
			out[i] = ErrBreakerOpen
			continue
		}
		wg.Add(1)
		go func(i int, x Executor) {
			defer wg.Done()
			out[i] = x.Ready(ctx)
		}(i, x)
	}
	wg.Wait()
	m := make(map[string]error, len(c.execs))
	for i, x := range c.execs {
		m[x.Name()] = out[i]
	}
	return m
}

// Distribute partitions v per spec across the shards, installs each
// part, and records the spec (and the shard metadata in the catalog, so
// plan-cache epochs see topology changes).
func (c *Coordinator) Distribute(name string, v value.Value, spec Spec) error {
	spec.Name = name
	parts, err := Partition(v, spec, len(c.execs))
	if err != nil {
		return err
	}
	for i, x := range c.execs {
		if err := x.Register(name, parts[i]); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.specs[name] = spec
	c.mu.Unlock()
	return c.engine.SetShardMeta(name, sqlpp.ShardMeta{
		Kind:   spec.Kind.String(),
		Key:    spec.Key,
		Shards: len(c.execs),
	})
}

// Broadcast replicates an unsharded collection to every shard and the
// coordinator, so shard-local plans can join against it.
func (c *Coordinator) Broadcast(name string, v value.Value) error {
	for _, x := range c.execs {
		if err := x.Register(name, v); err != nil {
			return err
		}
	}
	return c.engine.Register(name, v)
}

// ExecRequest carries one coordinator query.
type ExecRequest struct {
	// Query is the SQL++ text.
	Query string
	// Params binds parameterized-query names; parameterized queries over
	// sharded collections run through the gather path.
	Params map[string]value.Value
	// Options overrides the coordinator engine's options for this
	// request (nil keeps them).
	Options *ExecOptions
	// Explain requests the composite EXPLAIN ANALYZE tree.
	Explain bool
	// OnFailure overrides the policy's partial-failure mode for this
	// request (nil keeps it).
	OnFailure *FailMode
}

// Result is a coordinator query's answer.
type Result struct {
	// Value is the merged result.
	Value value.Value
	// Class is the scatter class that ran: local, group, topk, concat,
	// or gather.
	Class string
	// Sharded names the collection that drove the scatter ("" for
	// local).
	Sharded string
	// MissingShards lists, in shard order, the shards whose data is
	// absent from a partial-policy result. Empty on complete results.
	MissingShards []string
	// Notes describes the scatter decomposition (plan annotations).
	Notes []string
	// Stats is the composite EXPLAIN ANALYZE tree when Explain was set.
	Stats *eval.StatsSnapshot
}

// Exec runs one query with default request settings.
func (c *Coordinator) Exec(ctx context.Context, query string) (*Result, error) {
	return c.ExecRequest(ctx, ExecRequest{Query: query})
}

// ExecRequest runs one query across the fleet: classify, scatter under
// the fault-tolerance policy, merge. A panic anywhere on the
// coordinator path degrades into the query's *PanicError instead of
// killing the process, mirroring the engine's own panic barrier.
func (c *Coordinator) ExecRequest(ctx context.Context, req ExecRequest) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("shard coordinator: %w",
				&eval.PanicError{Val: r, Stack: debug.Stack()})
		}
	}()
	opts := c.engine.Options()
	if req.Options != nil {
		opts = req.Options.apply(opts)
	}
	mode := c.policy.OnFailure
	if req.OnFailure != nil {
		mode = *req.OnFailure
	}
	sp := c.plan(req.Query)
	switch sp.class {
	case "local":
		return c.execLocal(ctx, req, opts)
	case "gather":
		return c.execGather(ctx, req, opts, mode, sp)
	default:
		return c.execSplit(ctx, req, opts, mode, sp)
	}
}

// plan classifies the query, caching by query text and catalog epoch
// (registrations and topology changes bump the epoch).
func (c *Coordinator) plan(query string) *scatterPlan {
	key := strconv.FormatInt(c.engine.IndexEpoch(), 10) + "\x00" + query
	c.planMu.Lock()
	if p, ok := c.planCache[key]; ok {
		c.planMu.Unlock()
		return p
	}
	c.planMu.Unlock()
	c.mu.RLock()
	specs := make(map[string]Spec, len(c.specs))
	for k, v := range c.specs {
		specs[k] = v
	}
	c.mu.RUnlock()
	p := classify(query, specs)
	c.planMu.Lock()
	if len(c.planCache) >= 256 {
		c.planCache = map[string]*scatterPlan{}
	}
	c.planCache[key] = p
	c.planMu.Unlock()
	return p
}

// execLocal runs a query that references no sharded collection on the
// coordinator engine.
func (c *Coordinator) execLocal(ctx context.Context, req ExecRequest, opts sqlpp.Options) (*Result, error) {
	eng := c.engine.WithOptions(opts)
	v, st, err := runOn(ctx, eng, req.Query, req.Params, req.Explain)
	if err != nil {
		return nil, err
	}
	res := &Result{Value: v, Class: "local", Stats: st,
		Notes: []string{"scatter: class=local (no sharded collection referenced)"}}
	return res, nil
}

// runOn prepares and executes query on eng, with or without params and
// instrumentation.
// governor:bounded by the request's parameter count (the name list); row production is governed inside the engine
func runOn(ctx context.Context, eng *sqlpp.Engine, query string, params map[string]value.Value, explain bool) (value.Value, *eval.StatsSnapshot, error) {
	if len(params) > 0 {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		p, err := eng.PrepareParams(query, names...)
		if err != nil {
			return nil, nil, err
		}
		if explain {
			return p.ExplainAnalyze(ctx, params)
		}
		v, err := p.ExecContext(ctx, params)
		return v, nil, err
	}
	p, err := eng.Prepare(query)
	if err != nil {
		return nil, nil, err
	}
	if explain {
		return p.ExplainAnalyze(ctx)
	}
	v, err := p.ExecContext(ctx)
	return v, nil, err
}

// shardOutcome is one shard's final state after the retry loop.
type shardOutcome struct {
	resp     *Response
	err      error
	attempts int64
	retries  int64
	hedges   int64
}

// scatter runs query on every shard under the fault-tolerance policy
// and returns the outcomes in shard order.
func (c *Coordinator) scatter(ctx context.Context, query string, opts ExecOptions, explain bool) []shardOutcome {
	out := make([]shardOutcome, len(c.execs))
	var wg sync.WaitGroup
	for i := range c.execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.callShard(ctx, i, Request{Query: query, Options: opts, Explain: explain})
		}(i)
	}
	wg.Wait()
	return out
}

// callShard runs one shard request through the retry/backoff/breaker
// loop: bounded attempts, exponential backoff with jitter honoring
// Retry-After hints, per-attempt deadlines carved from the remaining
// query budget, and a circuit breaker that fails fast while open.
func (c *Coordinator) callShard(ctx context.Context, i int, req Request) shardOutcome {
	p := c.policy
	br := c.breakers[i]
	x := c.execs[i]
	var o shardOutcome
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			o.err = fmt.Errorf("shard %s: %w", x.Name(), err)
			return o
		}
		var err error
		if !br.allow(p) {
			// Fail fast without consuming the shard's time; the breaker
			// half-opens by itself after the cooldown, so a later retry (or
			// query) probes.
			err = Transient(fmt.Errorf("shard %s: %w", x.Name(), ErrBreakerOpen))
		} else {
			o.attempts++
			var resp *Response
			var hedged int64
			resp, hedged, err = c.attempt(ctx, x, req, attempt)
			o.hedges += hedged
			c.tele[i].hedges.Add(hedged)
			if err == nil {
				br.onSuccess()
				o.resp = resp
				o.err = nil
				return o
			}
			// A well-formed error answer (a strict-mode type fault, a
			// query that does not compile) shows the shard healthy; only
			// failures to answer count toward opening the breaker.
			if IsAnswered(err) {
				br.onSuccess()
			} else {
				br.onFailure(p)
			}
		}
		hint, transient := IsTransient(err)
		o.err = err
		if !transient || attempt >= p.MaxAttempts {
			return o
		}
		o.retries++
		c.tele[i].retries.Add(1)
		if serr := p.sleep(ctx, c.jitter.backoff(p, attempt, hint)); serr != nil {
			return o
		}
	}
}

// attempt runs one (possibly hedged) shard execution. The attempt
// deadline is the remaining query budget divided by the remaining
// attempts, so every retry still fits inside the caller's deadline.
// When hedging is enabled and the primary has not answered within
// HedgeAfter, an identical secondary launches; the first answer wins
// and the loser's context is cancelled.
func (c *Coordinator) attempt(ctx context.Context, x Executor, req Request, attempt int) (*Response, int64, error) {
	p := c.policy
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if dl, ok := ctx.Deadline(); ok {
		left := p.MaxAttempts - attempt + 1
		now := p.now()
		per := dl.Sub(now) / time.Duration(left)
		actx, cancel = context.WithDeadline(ctx, now.Add(per))
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type res struct {
		r   *Response
		err error
	}
	ch := make(chan res, 2) // buffered: a losing attempt never blocks
	launch := func() {
		// Panic barrier: a panic inside an executor (including an armed
		// shard-exec fault) is a transient shard failure, not a process
		// crash — the retry loop gets a chance to recover it.
		defer func() {
			if rec := recover(); rec != nil {
				ch <- res{nil, Transient(fmt.Errorf("shard %s: %w", x.Name(),
					&eval.PanicError{Val: rec, Stack: debug.Stack()}))}
			}
		}()
		r, err := x.Exec(actx, req)
		ch <- res{r, err}
	}
	go launch()
	inflight := 1
	var hedges int64
	var timerC <-chan time.Time
	if p.HedgeAfter > 0 {
		t := time.NewTimer(p.HedgeAfter)
		defer t.Stop()
		timerC = t.C
	}
	var lastErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.r, hedges, nil
			}
			lastErr = r.err
			inflight--
			if inflight == 0 {
				return nil, hedges, lastErr
			}
		case <-actx.Done():
			// Abandon a stalled attempt at the deadline instead of waiting
			// for it to notice: the buffered channel lets the stragglers
			// finish and exit on their own, and the retry loop decides
			// whether the remaining budget buys another attempt.
			return nil, hedges, Transient(fmt.Errorf("shard %s: %w", x.Name(), actx.Err()))
		case <-timerC:
			timerC = nil
			hedges++
			inflight++
			go launch()
		}
	}
}

// execSplit runs the split scatter classes (group/topk/concat): shard
// query on every shard, fold the partials in shard order, merge query
// on an ephemeral engine.
func (c *Coordinator) execSplit(ctx context.Context, req ExecRequest, opts sqlpp.Options, mode FailMode, sp *scatterPlan) (*Result, error) {
	outs := c.scatter(ctx, sp.shardQuery, scatterOptions(opts), req.Explain)
	missing, err := c.settle(outs, mode)
	if err != nil {
		return nil, err
	}

	// Fold the partial rows in shard order; under range partitioning
	// this preserves global row order, which is what makes merged
	// results byte-identical to single-node execution.
	gov := eval.NewGovernor(opts.Limits)
	partials := make([]value.Value, 0, partsLen(outs))
	stats := make([]plan.ShardStat, 0, len(outs))
	for i, o := range outs {
		st := plan.ShardStat{
			Name:     c.execs[i].Name(),
			Attempts: o.attempts,
			Retries:  o.retries,
			Hedges:   o.hedges,
			Failed:   o.err != nil,
		}
		if o.resp != nil {
			elems, ok := value.Elements(o.resp.Value)
			if !ok {
				return nil, fmt.Errorf("shard %s: partial result is not a collection", c.execs[i].Name())
			}
			for _, e := range elems {
				if faultinject.Enabled {
					if ferr := faultinject.Fire(faultinject.ShardGatherNext); ferr != nil {
						return nil, fmt.Errorf("shard gather: %w", ferr)
					}
				}
				if gov != nil {
					if gerr := gov.ChargeValues("shard-gather", 1, e); gerr != nil {
						return nil, gerr
					}
				}
				partials = append(partials, e)
			}
			st.Rows = int64(len(elems))
			st.Tree = o.resp.Stats
		}
		stats = append(stats, st)
	}

	meng, err := c.scratch(opts, map[string]value.Value{partialsName: value.Bag(partials)}, false)
	if err != nil {
		return nil, err
	}
	v, mst, err := runOn(ctx, meng, sp.mergeQuery, nil, req.Explain)
	if err != nil {
		return nil, fmt.Errorf("shard merge: %w", err)
	}
	res := &Result{
		Value:         v,
		Class:         sp.class,
		Sharded:       sp.sharded,
		MissingShards: missing,
		Notes:         c.notes(sp, mode, missing),
	}
	if req.Explain {
		res.Stats = plan.ScatterStats(sp.class, sp.sharded, stats, missing, mst)
	}
	return res, nil
}

// execGather runs the always-correct fallback: pull each sharded
// collection's parts back whole, reassemble them in shard order, and
// run the original query (params and all) on an ephemeral engine that
// sees the same catalog a single node would.
func (c *Coordinator) execGather(ctx context.Context, req ExecRequest, opts sqlpp.Options, mode FailMode, sp *scatterPlan) (*Result, error) {
	gov := eval.NewGovernor(opts.Limits)
	gathered := map[string]value.Value{}
	var stats []plan.ShardStat
	var missing []string
	for _, name := range sp.gather {
		outs := c.scatter(ctx, name, scatterOptions(opts), false)
		m, err := c.settle(outs, mode)
		if err != nil {
			return nil, err
		}
		missing = mergeMissing(missing, m)
		elems := make([]value.Value, 0, partsLen(outs))
		isArray := false
		for i, o := range outs {
			st := plan.ShardStat{
				Name:     c.execs[i].Name(),
				Attempts: o.attempts,
				Retries:  o.retries,
				Hedges:   o.hedges,
				Failed:   o.err != nil,
			}
			if o.resp != nil {
				part, ok := value.Elements(o.resp.Value)
				if !ok {
					return nil, fmt.Errorf("shard %s: gathered %s is not a collection", c.execs[i].Name(), name)
				}
				if o.resp.Value.Kind() == value.KindArray {
					isArray = true
				}
				for _, e := range part {
					if faultinject.Enabled {
						if ferr := faultinject.Fire(faultinject.ShardGatherNext); ferr != nil {
							return nil, fmt.Errorf("shard gather: %w", ferr)
						}
					}
					if gov != nil {
						if gerr := gov.ChargeValues("shard-gather", 1, e); gerr != nil {
							return nil, gerr
						}
					}
					elems = append(elems, e)
				}
				st.Rows = int64(len(part))
			}
			stats = append(stats, st)
		}
		if isArray {
			gathered[name] = value.Array(elems)
		} else {
			gathered[name] = value.Bag(elems)
		}
	}

	geng, err := c.scratch(opts, gathered, true)
	if err != nil {
		return nil, err
	}
	v, gst, err := runOn(ctx, geng, req.Query, req.Params, req.Explain)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Value:         v,
		Class:         "gather",
		Sharded:       sp.gather[0],
		MissingShards: missing,
		Notes:         c.notes(sp, mode, missing),
	}
	if req.Explain {
		res.Stats = plan.ScatterStats("gather", sp.gather[0], stats, missing, gst)
	}
	return res, nil
}

// partsLen sums the element counts of the shard answers, to size the
// fold that concatenates them.
func partsLen(outs []shardOutcome) int {
	n := 0
	for _, o := range outs {
		if o.resp != nil {
			if elems, ok := value.Elements(o.resp.Value); ok {
				n += len(elems)
			}
		}
	}
	return n
}

// governor:bounded by the shard count (one outcome per shard)
// settle applies the partial-failure policy to a scatter's outcomes:
// fail-fast surfaces the first failure as a *ShardError; partial
// requires at least one success and reports the failed shards, in
// shard order, as missing.
func (c *Coordinator) settle(outs []shardOutcome, mode FailMode) ([]string, error) {
	var missing []string
	ok := 0
	for i, o := range outs {
		if o.err == nil {
			ok++
			continue
		}
		if mode == FailFast {
			return nil, &ShardError{Shard: c.execs[i].Name(), Attempts: int(o.attempts), Err: o.err}
		}
		missing = append(missing, c.execs[i].Name())
	}
	if ok == 0 && len(outs) > 0 {
		for i, o := range outs {
			if o.err != nil {
				return nil, &ShardError{Shard: c.execs[i].Name(), Attempts: int(o.attempts), Err: o.err}
			}
		}
	}
	return missing, nil
}

// mergeMissing unions two shard-ordered missing lists, preserving
// order.
// governor:bounded by the shard count (missing lists name shards)
func mergeMissing(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(a, b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// scatterOptions derives the per-shard option slice: row/byte budgets
// stay coordinator-side (a per-shard budget would reject partials that
// merge into a legal result); the per-attempt deadline is the per-shard
// backpressure.
func scatterOptions(opts sqlpp.Options) ExecOptions {
	eo := OptionsFrom(opts)
	eo.MaxRows = 0
	eo.MaxBytes = 0
	return eo
}

// scratch builds a per-query engine holding extras. For gathers, which
// re-run the original query, it starts from a fork of the coordinator's
// engine: the local collections with the statistics and indexes they
// already have, so that the plan is the one a single node would choose
// and nothing but the gathered collections is profiled per query.
func (c *Coordinator) scratch(opts sqlpp.Options, extras map[string]value.Value, withLocal bool) (*sqlpp.Engine, error) {
	var eng *sqlpp.Engine
	if withLocal {
		eng = c.engine.Fork(opts)
	} else {
		eng = sqlpp.New(&opts)
	}
	for name, v := range extras {
		if err := eng.Register(name, v); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// notes renders the scatter decomposition as plan annotations.
func (c *Coordinator) notes(sp *scatterPlan, mode FailMode, missing []string) []string {
	out := []string{fmt.Sprintf("scatter: class=%s collection=%s shards=%d policy=%s",
		sp.class, sp.sharded, len(c.execs), mode)}
	if sp.shardQuery != "" {
		out = append(out, "shard query: "+sp.shardQuery)
	}
	if sp.coPartitioned != "" {
		out = append(out, "group merge: co-partitioned on hash key "+sp.coPartitioned+
			" (each group whole on one shard; partials read, not re-aggregated)")
	}
	if sp.mergeQuery != "" {
		out = append(out, "merge query: "+sp.mergeQuery)
	}
	if len(sp.gather) > 0 {
		out = append(out, "gather: sharded collections pulled whole, original query re-run")
	}
	if len(missing) > 0 {
		out = append(out, "missing_shards: "+strings.Join(missing, ","))
	}
	return out
}
