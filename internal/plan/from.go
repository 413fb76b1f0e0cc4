package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/index"
	"sqlpp/internal/value"
)

// hoistSource evaluates a hoisted (uncorrelated) source once and charges
// its materialization: unlike a streamed scan, a hoisted source is held
// for the lifetime of the block, so its full size counts against the
// governor's materialization budget.
func hoistSource(ctx *eval.Context, outer *eval.Env, srcC eval.CompiledExpr) (value.Value, error) {
	src, err := srcC(ctx, outer)
	if err != nil {
		return nil, err
	}
	if ctx.Gov != nil {
		n := int64(1)
		switch s := src.(type) {
		case value.Array:
			n = int64(len(s))
		case value.Bag:
			n = int64(len(s))
		}
		if err := ctx.Gov.ChargeValues("hoist", n, src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// produceFrom streams the binding environments of a FROM clause to k.
// With no FROM items the block evaluates its remaining clauses over a
// single empty binding (SELECT VALUE 1+1 works), matching the functional
// pipeline reading of a query block.
//
// Comma-separated items are correlated cross products: each item's source
// expression is evaluated in the environment produced by the items to its
// left (left correlation, §III).
func produceFrom(ctx *eval.Context, outer *eval.Env, items []ast.FromItem, k emit) error {
	if len(items) == 0 {
		return k(outer.Child())
	}
	return produceItems(ctx, outer, items, 0, k)
}

func produceItems(ctx *eval.Context, env *eval.Env, items []ast.FromItem, i int, k emit) error {
	if i == len(items) {
		return k(env)
	}
	return produceItem(ctx, env, items[i], func(child *eval.Env) error {
		return produceItems(ctx, child, items, i+1, k)
	})
}

// produceItem streams the bindings of a single FROM item, each in a new
// child environment of env.
func produceItem(ctx *eval.Context, env *eval.Env, item ast.FromItem, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, item)
		inner := k
		k = func(child *eval.Env) error {
			n.AddOut(1)
			return inner(child)
		}
		defer n.Timer()()
	}
	switch x := item.(type) {
	case *ast.FromExpr:
		return produceScan(ctx, env, x, k)
	case *ast.FromUnpivot:
		return produceUnpivot(ctx, env, x, k)
	case *ast.FromJoin:
		return produceJoin(ctx, env, x, k)
	}
	return fmt.Errorf("plan: unknown FROM item %T", item)
}

// produceScan ranges a variable over a source value. SQL++ relaxes the
// SQL rule that sources are collections of tuples: any collection works,
// and its elements bind as-is (§III-A). A non-collection source is a
// single binding in permissive mode and an error in stop-on-error mode;
// a MISSING source produces no bindings.
func produceScan(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, k emit) error {
	src, err := eval.Eval(ctx, env, x.Expr)
	if err != nil {
		return err
	}
	return scanValue(ctx, env, x, src, k)
}

// scanValue binds x's variables over an already-evaluated source value;
// the physical plan reuses it with a hoisted source.
func scanValue(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, src value.Value, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, x)
		switch s := src.(type) {
		case value.Array:
			n.AddIn(int64(len(s)))
		case value.Bag:
			n.AddIn(int64(len(s)))
		default:
			if src.Kind() != value.KindMissing {
				n.AddIn(1)
			}
		}
	}
	// Scans are the row-production loops of every query block (cross
	// products and joins nest them), so this is where a deadline or
	// cancellation cooperatively stops a runaway query.
	bind := func(v value.Value, ordinal value.Value) error {
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.ScanNext); err != nil {
				return err
			}
		}
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		child := env.Child()
		child.Bind(x.As, v)
		if x.AtVar != "" {
			child.Bind(x.AtVar, ordinal)
		}
		return k(child)
	}
	switch s := src.(type) {
	case value.Array:
		for i, v := range s {
			if err := bind(v, value.Int(int64(i))); err != nil {
				return err
			}
		}
		return nil
	case value.Bag:
		// Bags are unordered: AT binds MISSING.
		for _, v := range s {
			if err := bind(v, value.Missing); err != nil {
				return err
			}
		}
		return nil
	default:
		if src.Kind() == value.KindMissing {
			return nil
		}
		if ctx.Mode == eval.StopOnError {
			return &eval.TypeError{Pos: x.Pos(), Op: "FROM", Detail: "source is " + src.Kind().String() + ", not a collection"}
		}
		// Permissive: a non-collection source is a singleton binding.
		return bind(src, value.Missing)
	}
}

// produceUnpivot turns a tuple's attributes into bindings (§VI-A):
// UNPIVOT expr AS v AT n binds v to each attribute value and n to its
// name. In permissive mode a non-tuple source behaves like the tuple
// {'_1': source}; MISSING produces no bindings.
func produceUnpivot(ctx *eval.Context, env *eval.Env, x *ast.FromUnpivot, k emit) error {
	src, err := eval.Eval(ctx, env, x.Expr)
	if err != nil {
		return err
	}
	return unpivotValue(ctx, env, x, src, k)
}

// unpivotValue binds x's variables over an already-evaluated source
// tuple; the physical plan reuses it with a hoisted source.
func unpivotValue(ctx *eval.Context, env *eval.Env, x *ast.FromUnpivot, src value.Value, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, x)
		if t, ok := src.(*value.Tuple); ok {
			n.AddIn(int64(t.Len()))
		} else if src.Kind() != value.KindMissing {
			n.AddIn(1)
		}
	}
	bind := func(name string, v value.Value) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		child := env.Child()
		child.Bind(x.ValueVar, v)
		child.Bind(x.NameVar, value.String(name))
		return k(child)
	}
	switch t := src.(type) {
	case *value.Tuple:
		vals := t.Values()
		for i, name := range t.Names() {
			if err := bind(name, vals[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		if src.Kind() == value.KindMissing {
			return nil
		}
		if ctx.Mode == eval.StopOnError {
			return &eval.TypeError{Pos: x.Pos(), Op: "UNPIVOT", Detail: "source is " + src.Kind().String() + ", not a tuple"}
		}
		return bind("_1", src)
	}
}

// produceJoin evaluates an explicit JOIN. The right side is evaluated
// laterally (it may reference left-side variables). LEFT JOIN emits a
// binding with the right side's variables bound to NULL when no right
// binding satisfies the ON condition.
func produceJoin(ctx *eval.Context, env *eval.Env, x *ast.FromJoin, k emit) error {
	var pads *atomic.Int64
	if ctx.Stats != nil && x.Kind == ast.JoinLeft {
		pads = itemNode(ctx, x).Counter("left_pads")
	}
	return produceItem(ctx, env, x.Left, func(left *eval.Env) error {
		matched := false
		err := produceItem(ctx, left, x.Right, func(right *eval.Env) error {
			if x.On != nil {
				cond, err := eval.Eval(ctx, right, x.On)
				if err != nil {
					return err
				}
				if !eval.IsTrue(cond) {
					return nil
				}
			}
			matched = true
			return k(right)
		})
		if err != nil {
			return err
		}
		if !matched && x.Kind == ast.JoinLeft {
			if pads != nil {
				pads.Add(1)
			}
			padded := left.Child()
			for _, name := range ast.ItemVars(x.Right) {
				padded.Bind(name, value.Null)
			}
			return k(padded)
		}
		return nil
	})
}

// physState is the per-invocation runtime of a block's physical plan:
// lazily hoisted sources and hash tables, indexed by step. The lazy
// cells synchronize on sync.Once so the workers of a parallel scan can
// share one physState — whichever binding first needs a hoisted source
// or a hash table builds it, and a source the naive plan would never
// evaluate (empty left side) is still never evaluated.
type physState struct {
	phys    *sfwPhys
	outer   *eval.Env
	sources []lazyValue
	tables  []lazyTable
	idxs    []lazyIndex
	// preFilter and stats are the pre-resolved EXPLAIN ANALYZE nodes and
	// counters, nil when instrumentation is off. Resolving once here
	// keeps the per-row work to nil tests and atomic adds even in
	// parallel workers, which share this physState.
	preFilter *eval.StatsNode
	stats     []stepStats
	// ord, non-nil only under a reordered chain (which is never
	// parallel), records per step the source ordinal of its current
	// binding; the reorder buffer reads it to key each produced row.
	ord []int64
	// seq is the chain of the block's one sequential consumer (produce);
	// the workers of a parallel scan each run a chain of their own.
	seq chain
}

// stepStats is one FROM step's pre-resolved instrumentation.
type stepStats struct {
	node   *eval.StatsNode // the step's scan/unpivot/join/hash-join node
	filter *eval.StatsNode // pushed-filter node, nil when no filters
	// hash-join hot counters (nil for non-hash steps).
	candidates *atomic.Int64
	verified   *atomic.Int64
	pads       *atomic.Int64
	// index-probe hot counters (nil unless the step probes an index).
	probes *atomic.Int64
	hits   *atomic.Int64
}

func newPhysState(ctx *eval.Context, phys *sfwPhys, outer *eval.Env) *physState {
	st := &physState{
		phys:    phys,
		outer:   outer,
		sources: make([]lazyValue, len(phys.steps)),
		tables:  make([]lazyTable, len(phys.steps)),
		idxs:    make([]lazyIndex, len(phys.steps)),
	}
	if ctx.Stats != nil {
		parent := statsParent(ctx)
		if len(phys.pre) > 0 {
			st.preFilter = ctx.Stats.Node(parent, phys, "pre", "filter", "pre")
		}
		st.stats = make([]stepStats, len(phys.steps))
		for i := range phys.steps {
			step := &phys.steps[i]
			ss := &st.stats[i]
			if step.hash != nil {
				ss.node = hashNode(ctx, parent, step.hash)
				ss.candidates = ss.node.Counter("candidates")
				ss.verified = ss.node.Counter("verified")
				if step.hash.leftJoin {
					ss.pads = ss.node.Counter("left_pads")
				}
				if step.hash.buildIdx != nil {
					ss.probes = ss.node.Counter("probes")
					ss.hits = ss.node.Counter("hits")
				}
				if step.hash.estBuild >= 0 {
					ss.node.Counter("est_build").Store(step.hash.estBuild)
				}
				if step.hash.estOut >= 0 {
					ss.node.Counter("est_rows").Store(step.hash.estOut)
				}
			} else if step.idx != nil {
				ss.node = indexNode(ctx, parent, step)
				ss.probes = ss.node.Counter("probes")
				ss.hits = ss.node.Counter("hits")
				if step.idx.estRows >= 0 {
					ss.node.Counter("est_rows").Store(step.idx.estRows)
				}
			} else {
				op, label := describeItem(step.item)
				ss.node = ctx.Stats.Node(parent, step.item, "item", op, label)
				if step.estSrc >= 0 {
					ss.node.Counter("est_rows").Store(step.estSrc)
				}
			}
			if len(step.filters) > 0 {
				ss.filter = ctx.Stats.Node(ss.node, step, "filter", "filter", "pushed")
				if step.estOut >= 0 {
					ss.filter.Counter("est_rows").Store(step.estOut)
				}
			}
		}
	}
	return st
}

type lazyValue struct {
	once sync.Once
	val  value.Value
	err  error
}

func (l *lazyValue) get(f func() (value.Value, error)) (value.Value, error) {
	l.once.Do(func() { l.val, l.err = f() })
	return l.val, l.err
}

type lazyTable struct {
	once sync.Once
	tab  *hashTable
	err  error
}

func (l *lazyTable) get(f func() (*hashTable, error)) (*hashTable, error) {
	l.once.Do(func() { l.tab, l.err = f() })
	return l.tab, l.err
}

// produce streams the FROM chain's bindings under the physical plan:
// pre-filters first (once), then the step chain.
func (st *physState) produce(ctx *eval.Context, k emit) error {
	if st.preFilter != nil {
		st.preFilter.AddIn(1)
	}
	ok, err := filtersPass(ctx, st.outer, st.phys.preC)
	if err != nil || !ok {
		return err
	}
	if st.preFilter != nil {
		st.preFilter.AddOut(1)
	}
	if len(st.phys.steps) == 0 {
		// A FROM-less block: one empty binding, in a child environment so
		// LET never binds into the enclosing one (as produceFrom).
		return k(st.outer.Child())
	}
	if st.phys.reorder != nil {
		return st.produceReordered(ctx, k)
	}
	return st.seq.init(st, ctx, k).run(st.outer, 0)
}

// chain is one consumer's run of the block's step chain: the physState
// (shared by the workers of a parallel scan) plus what is the consumer's
// own — its context, its sink k, and the per-step continuations and hash
// probes. Those closures are built once here, not once per binding, so a
// row crossing a step allocates nothing for the plumbing.
type chain struct {
	st  *physState
	ctx *eval.Context
	k   emit
	// fns[i] applies step i's pushed filters to a binding it produced and
	// runs step i+1 over it; fns[n+i] is hash step i's probe of one left
	// binding, nil for other steps.
	fns []emit
	// buf backs fns for one-step chains, so the per-row subquery — a block
	// invocation per outer row — sets its chain up without allocating it.
	buf [2]emit
}

func (c *chain) init(st *physState, ctx *eval.Context, k emit) *chain {
	n := len(st.phys.steps)
	c.st, c.ctx, c.k, c.fns = st, ctx, k, c.buf[:]
	if 2*n > len(c.buf) {
		c.fns = make([]emit, 2*n)
	}
	for i := range st.phys.steps {
		c.fns[i], c.fns[n+i] = c.nextFor(i), nil
		if h := st.phys.steps[i].hash; h != nil {
			c.fns[n+i] = c.probeFor(i, h)
		}
	}
	return c
}

func (c *chain) nextFor(i int) emit {
	step := &c.st.phys.steps[i]
	var filter *eval.StatsNode
	if c.st.stats != nil {
		filter = c.st.stats[i].filter
	}
	if len(step.filters) == 0 && i == len(c.st.phys.steps)-1 {
		return c.k // the last step's unfiltered bindings go straight to the sink
	}
	return func(child *eval.Env) error {
		if filter != nil {
			filter.AddIn(1)
		}
		ok, err := filtersPass(c.ctx, child, step.filtersC)
		if err != nil || !ok {
			return err
		}
		if filter != nil {
			filter.AddOut(1)
		}
		return c.run(child, i+1)
	}
}

// run produces step i's bindings over env and forwards each through the
// step's pushed filters to the next step.
func (c *chain) run(env *eval.Env, i int) error {
	st, ctx := c.st, c.ctx
	if i == len(st.phys.steps) {
		return c.k(env)
	}
	step := &st.phys.steps[i]
	var ss *stepStats
	if st.stats != nil {
		ss = &st.stats[i]
	}
	next, probe := c.fns[i], c.fns[len(st.phys.steps)+i]
	if step.hash != nil {
		if step.hash.buildIdx != nil {
			if ix := st.idxs[i].get(func() *index.Index { return resolveIndex(ctx, step.hash.buildIdx) }); ix != nil {
				return st.runIndexJoin(ctx, env, i, step.hash, ix, next)
			}
		}
		if step.hash.left != nil {
			return produceItem(ctx, env, step.hash.left, probe)
		}
		return probe(env)
	}
	if step.idx != nil {
		// A nil resolution (index dropped or redeclared since planning)
		// falls through to the scan paths below — the matched conjuncts
		// are still in step.filters, so only the speed changes.
		if ix := st.idxs[i].get(func() *index.Index { return resolveIndex(ctx, step.idx) }); ix != nil {
			return st.runIndexScan(ctx, env, i, step, ix, next)
		}
	}
	if x, ok := step.item.(*ast.FromExpr); ok {
		return st.runScanFused(ctx, env, i, x, step, ss, next)
	}
	if x, ok := step.item.(*ast.FromUnpivot); ok && step.hoist {
		src, err := st.sources[i].get(func() (value.Value, error) {
			return hoistSource(ctx, st.outer, step.srcC)
		})
		if err != nil {
			return err
		}
		// The hoisted path bypasses produceItem, so the step node's
		// emitted-row count is recorded here.
		emitNext := next
		if ss != nil {
			n := ss.node
			emitNext = func(child *eval.Env) error {
				n.AddOut(1)
				return next(child)
			}
		}
		return unpivotValue(ctx, env, x, src, emitNext)
	}
	// Nested-loop JOIN ... ON and correlated UNPIVOT: the producers planned
	// and unplanned blocks share, which interpret their own expressions.
	return produceItem(ctx, env, step.item, next)
}

// scanBatch is the row-slice size of the fused scan loop: the
// cancellation poll and the stats row-count charges are amortized to one
// per batch. A power of two a few multiples of the eval pollInterval, so
// batched polling stays on the interpreter's cadence.
const scanBatch = 256

// runScanFused is the batched scan loop of the physical plan: every plain
// FromExpr step runs it in place of the naive pipeline's
// produceItem+scanValue. The source evaluates through its compiled
// closure (or the shared hoist cell); the element loop then binds,
// filters (inside next), and recurses exactly like the row-at-a-time
// path, but batch-at-a-time: one InterruptedN poll per batch and one
// stats true-up per batch with exact emitted counts. When phys.reuseEnv
// holds, one child Env is allocated per invocation and rebound in place
// per row instead of allocating per row. Observable row order, error
// points, stats totals, and fault-injection sites are identical to the
// naive pipeline's.
//
// governor: the fused loop materializes nothing — rows stream to next
// and are charged at the pipeline's sinks (rowSink, groupState, hash
// build), exactly as in the row-at-a-time path.
func (st *physState) runScanFused(ctx *eval.Context, env *eval.Env, i int, x *ast.FromExpr, step *fromStep, ss *stepStats, next emit) error {
	var src value.Value
	var err error
	if step.hoist {
		src, err = st.sources[i].get(func() (value.Value, error) {
			return hoistSource(ctx, st.outer, step.srcC)
		})
	} else {
		src, err = step.srcC(ctx, env)
	}
	if err != nil {
		return err
	}

	var node *eval.StatsNode
	if ss != nil {
		node = ss.node
		if !step.hoist {
			// A hoisted step's per-row work is the continuation's, so it
			// carries no timer of its own.
			defer node.Timer()()
		}
	}

	elems, isColl := value.Elements(src)
	if !isColl {
		// Non-collection sources (singleton bindings, MISSING, strict
		// faults) keep the row-at-a-time edge semantics of scanValue,
		// wrapped with produceItem's emitted-row accounting.
		if st.ord != nil {
			st.ord[i] = 0
		}
		emitNext := next
		if node != nil {
			inner := next
			emitNext = func(child *eval.Env) error {
				node.AddOut(1)
				return inner(child)
			}
		}
		return scanValue(ctx, env, x, src, emitNext)
	}

	if node != nil {
		node.AddIn(int64(len(elems)))
	}
	isArray := src.Kind() == value.KindArray
	reuse := st.phys.reuseEnv
	var child *eval.Env
	for base := 0; base < len(elems); base += scanBatch {
		hi := base + scanBatch
		if hi > len(elems) {
			hi = len(elems)
		}
		if err := ctx.InterruptedN(hi - base); err != nil {
			return err
		}
		emitted := int64(0)
		for j := base; j < hi; j++ {
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.ScanNext); err != nil {
					if node != nil {
						node.AddOut(emitted)
					}
					return err
				}
			}
			if child == nil || !reuse {
				child = env.Child()
			}
			if st.ord != nil {
				st.ord[i] = int64(j)
			}
			child.Bind(x.As, elems[j])
			if x.AtVar != "" {
				if isArray {
					child.Bind(x.AtVar, value.Int(int64(j)))
				} else {
					// Bags are unordered: AT binds MISSING.
					child.Bind(x.AtVar, value.Missing)
				}
			}
			emitted++
			if err := next(child); err != nil {
				if node != nil {
					node.AddOut(emitted)
				}
				return err
			}
		}
		if node != nil {
			node.AddOut(emitted)
		}
	}
	return nil
}

// filtersPass evaluates a conjunct list; the binding survives only when
// every conjunct is exactly TRUE, the same test WHERE applies.
func filtersPass(ctx *eval.Context, env *eval.Env, filters []eval.CompiledExpr) (bool, error) {
	for _, f := range filters {
		cond, err := f(ctx, env)
		if err != nil {
			return false, err
		}
		if !eval.IsTrue(cond) {
			return false, nil
		}
	}
	return true, nil
}

// grouper is a block's GROUP BY operator: rows fold in through add, one
// binding per group comes out of flush, and a parallel scan merges its
// workers' groupers in chunk order. groupState materializes the groups
// (what GROUP AS means); streamGroup (streamagg.go) folds aggregates as
// the rows arrive, for blocks that never look at the collection itself.
type grouper interface {
	add(env *eval.Env) error
	flush(k emit) error
	// merge folds in the grouper of a later chunk; it has the receiver's
	// concrete type.
	merge(other grouper) error
}

// newGrouper picks the block's GROUP BY operator from its physical plan;
// keys evaluate the grouping keys.
func newGrouper(ctx *eval.Context, outer *eval.Env, spec *ast.GroupBy, keys []eval.CompiledExpr, phys *sfwPhys) grouper {
	if phys != nil && phys.stream != nil {
		return newStreamGroup(ctx, outer, spec, keys, phys.stream)
	}
	return newGroupState(ctx, outer, spec, keys)
}

// groupState materializes GROUP BY groups (§V-B). Each input binding
// contributes its block variables as one content tuple; groups key on
// the canonical encoding of their key values, so NULL and MISSING each
// group on their own (coalesced in SQL compatibility mode), and 1
// groups with 1.0.
type groupState struct {
	ctx     *eval.Context
	outer   *eval.Env
	spec    *ast.GroupBy
	order   []string // insertion order of group keys
	keyVals map[string][]value.Value
	content map[string]value.Bag
	// st is the EXPLAIN ANALYZE node, nil when instrumentation is off.
	// Parallel workers each hold their own groupState but resolve the
	// same keyed node, so rows-in sums across workers and groups-out is
	// recorded once by the merged state's flush.
	st *eval.StatsNode
	// keysC evaluate the grouping keys.
	keysC []eval.CompiledExpr
}

func newGroupState(ctx *eval.Context, outer *eval.Env, spec *ast.GroupBy, keys []eval.CompiledExpr) *groupState {
	g := &groupState{
		ctx:     ctx,
		outer:   outer,
		spec:    spec,
		keysC:   keys,
		keyVals: map[string][]value.Value{},
		content: map[string]value.Bag{},
	}
	if ctx.Stats != nil {
		g.st = ctx.Stats.Node(statsParent(ctx), spec, "group", "group-by", "materialize")
	}
	// The implicit single group of aggregate-only queries exists even
	// for empty input (SELECT AVG(x) over nothing yields one NULL row).
	if len(spec.Keys) == 0 {
		g.order = append(g.order, "")
		g.keyVals[""] = nil
		g.content[""] = nil
	}
	return g
}

// add folds one binding environment into its group.
func (g *groupState) add(env *eval.Env) error {
	if err := g.ctx.Interrupted(); err != nil {
		return err
	}
	if g.st != nil {
		g.st.AddIn(1)
	}
	keys := make([]value.Value, len(g.spec.Keys))
	kb, err := groupKey(g.ctx, env, g.keysC, keys, nil)
	if err != nil {
		return err
	}
	ks := string(kb)
	if have, ok := g.keyVals[ks]; !ok {
		g.order = append(g.order, ks)
		g.keyVals[ks] = keys
	} else if g.ctx.Compat {
		mergeCompatKeys(have, keys)
	}
	snap := env.SnapshotBelow(g.outer)
	g.content[ks] = append(g.content[ks], snap)
	if g.ctx.Gov != nil {
		if err := g.ctx.Gov.ChargeValues("group-by", 1, snap); err != nil {
			return err
		}
	}
	return checkSize(g.ctx, len(g.content[ks]))
}

// groupKey evaluates the grouping keys of env into vals and returns their
// canonical encoding appended to buf[:0].
func groupKey(ctx *eval.Context, env *eval.Env, keysC []eval.CompiledExpr, vals []value.Value, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for i, key := range keysC {
		v, err := key(ctx, env)
		if err != nil {
			return nil, err
		}
		vals[i] = v
		// SQL compatibility mode must not let a query distinguish null
		// from missing (§IV-B): a missing grouping key joins the NULL
		// group instead of forming its own. Only the encoding coalesces;
		// the representative stays MISSING unless some contributor was
		// null (mergeCompatKeys), so an all-missing image keeps
		// missing-style output per the guarantee.
		if ctx.Compat && v.Kind() == value.KindMissing {
			v = value.Null
		}
		buf = value.AppendKey(buf, v)
	}
	return buf, nil
}

// mergeCompatKeys upgrades MISSING representatives to NULL when another
// contributor to the same compat-coalesced group supplied a null key.
// The upgrade is order-independent: the representative is MISSING iff
// every row in the group had the key missing.
func mergeCompatKeys(have, incoming []value.Value) {
	for i, kv := range have {
		if kv.Kind() == value.KindMissing && incoming[i].Kind() != value.KindMissing {
			have[i] = value.Null
		}
	}
}

// flush emits one binding per group: the key aliases plus the GROUP AS
// collection (Listing 14's p/g bindings).
func (g *groupState) flush(k emit) error {
	for _, ks := range g.order {
		if g.st != nil {
			g.st.AddOut(1)
		}
		env := g.outer.Child()
		for i, key := range g.spec.Keys {
			env.Bind(keyAlias(key, i), g.keyVals[ks][i])
		}
		if g.spec.GroupAs != "" {
			bag := g.content[ks]
			if bag == nil {
				bag = value.Bag{}
			}
			env.Bind(g.spec.GroupAs, bag)
		}
		if err := k(env); err != nil {
			return err
		}
	}
	return nil
}
