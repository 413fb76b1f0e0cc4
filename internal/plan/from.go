package plan

import (
	"fmt"
	"sync"

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

// itemExprs are the evaluators of one FROM item, made once where its
// block's other closures are: a scan's or an UNPIVOT's source, or for a
// JOIN its ON condition (nil when absent) and its operands' trees.
type itemExprs struct {
	item        ast.FromItem
	src, on     eval.CompiledExpr
	left, right *itemExprs
}

// newItemExprs lowers item's expressions with compile.
func newItemExprs(item ast.FromItem, compile func(ast.Expr) eval.CompiledExpr) *itemExprs {
	it := &itemExprs{item: item}
	switch x := item.(type) {
	case *ast.FromExpr:
		it.src = compile(x.Expr)
	case *ast.FromUnpivot:
		it.src = compile(x.Expr)
	case *ast.FromJoin:
		it.on = compile(x.On)
		it.left, it.right = newItemExprs(x.Left, compile), newItemExprs(x.Right, compile)
	}
	return it
}

// itemRun is a run state's pass over one FROM item: the item's
// evaluators and its counts, with a JOIN's operands below it.
type itemRun struct {
	ex *itemExprs
	eval.OpCounts
	// pads counts the LEFT JOIN bindings padded with NULLs.
	pads        int64
	left, right *itemRun
}

// init readies r to run ex, with run states for a JOIN's operands.
func (r *itemRun) init(ex *itemExprs) *itemRun {
	r.ex = ex
	if ex.left != nil {
		r.left, r.right = new(itemRun).init(ex.left), new(itemRun).init(ex.right)
	}
	return r
}

// fold adds the counts of w, a run of the same item tree, to r's.
func (r *itemRun) fold(w *itemRun) {
	r.Add(w.OpCounts)
	r.pads += w.pads
	if r.left != nil {
		r.left.fold(w.left)
		r.right.fold(w.right)
	}
}

// produceFrom streams the binding environments of a FROM clause to k.
// With no FROM items the block evaluates its remaining clauses over a
// single empty binding (SELECT VALUE 1+1 works), matching the functional
// pipeline reading of a query block.
//
// Comma-separated items are correlated cross products: each item's source
// expression is evaluated in the environment produced by the items to its
// left (left correlation, §III).
func produceFrom(ctx *eval.Context, outer *eval.Env, items []*itemRun, k emit) error {
	if len(items) == 0 {
		return k(outer.Child())
	}
	return produceItems(ctx, outer, items, 0, k)
}

func produceItems(ctx *eval.Context, env *eval.Env, items []*itemRun, i int, k emit) error {
	if i == len(items) {
		return k(env)
	}
	return produceItem(ctx, env, items[i], func(child *eval.Env) error {
		return produceItems(ctx, child, items, i+1, k)
	})
}

// produceItem streams the bindings of a single FROM item, each in a new
// child environment of env. A scan ranges a variable over a source
// value, an UNPIVOT over a tuple's attributes.
func produceItem(ctx *eval.Context, env *eval.Env, it *itemRun, k emit) error {
	defer ctx.Time(&it.Nanos, ctx.Clock())
	switch x := it.ex.item.(type) {
	case *ast.FromExpr:
		src, err := it.ex.src(ctx, env)
		if err != nil {
			return err
		}
		return scanValue(ctx, env, x, src, nil, &it.Rows, k)
	case *ast.FromUnpivot:
		src, err := it.ex.src(ctx, env)
		if err != nil {
			return err
		}
		return unpivotValue(ctx, env, x, src, &it.Rows, k)
	case *ast.FromJoin:
		return produceJoin(ctx, env, it, x, k)
	}
	return fmt.Errorf("plan: unknown FROM item %T", it.ex.item)
}

// scanValue binds x's variables over an already-evaluated source value,
// counting the rows into counts. SQL++ relaxes the SQL rule that sources
// are collections of tuples: any collection works, and its elements bind
// as-is (§III-A). A non-collection source is a single binding in
// permissive mode and an error in stop-on-error mode; a MISSING source
// produces no bindings. Each element binds in a new child environment
// of env or, given a frame (a child of env), is rebound into the frame in
// place, which is only for a k that keeps nothing of the environment it
// is passed (the hash build copies out the values it keeps).
func scanValue(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, src value.Value, frame *eval.Env, counts *eval.Rows, k emit) error {
	elems, isColl := value.Elements(src)
	if !isColl && src.Kind() != value.KindMissing {
		// A non-collection source is a singleton binding (permissive).
		elems = []value.Value{src}
	}
	counts.In += int64(len(elems))
	if !isColl && len(elems) > 0 && ctx.Mode == eval.StopOnError {
		return &eval.TypeError{Pos: x.Pos(), Op: "FROM", Detail: "source is " + src.Kind().String() + ", not a collection"}
	}
	// Scans are the row-production loops of every query block (cross
	// products and joins nest them), so this is where a deadline or
	// cancellation cooperatively stops a runaway query.
	isArray := src.Kind() == value.KindArray
	child := frame
	for i, v := range elems {
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.ScanNext); err != nil {
				return err
			}
		}
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if frame == nil {
			child = env.Child()
		}
		bindElem(child, x, v, i, isArray)
		counts.Out++
		if err := k(child); err != nil {
			return err
		}
	}
	return nil
}

// bindElem binds x's variables in child to v, the element at position p
// of its source: AT binds p over an array and MISSING otherwise, bags
// being unordered.
func bindElem(child *eval.Env, x *ast.FromExpr, v value.Value, p int, isArray bool) {
	child.Bind(x.As, v)
	if x.AtVar != "" {
		if isArray {
			child.Bind(x.AtVar, value.Int(int64(p)))
		} else {
			child.Bind(x.AtVar, value.Missing)
		}
	}
}

// unpivotValue binds x's variables over an already-evaluated source
// tuple, counting the rows into counts (§VI-A): UNPIVOT expr AS v AT n
// binds v to each attribute value and n to its name. In permissive mode
// a non-tuple source behaves like the tuple {'_1': source}; MISSING
// produces no bindings.
func unpivotValue(ctx *eval.Context, env *eval.Env, x *ast.FromUnpivot, src value.Value, counts *eval.Rows, k emit) error {
	if t, ok := src.(*value.Tuple); ok {
		counts.In += int64(t.Len())
	} else if src.Kind() != value.KindMissing {
		counts.In++
	}
	bind := func(name string, v value.Value) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		child := env.Child()
		child.Bind(x.ValueVar, v)
		child.Bind(x.NameVar, value.String(name))
		counts.Out++
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
func produceJoin(ctx *eval.Context, env *eval.Env, it *itemRun, x *ast.FromJoin, k emit) error {
	return produceItem(ctx, env, it.left, func(left *eval.Env) error {
		matched := false
		err := produceItem(ctx, left, it.right, func(right *eval.Env) error {
			if it.ex.on != nil {
				cond, err := it.ex.on(ctx, right)
				if err != nil {
					return err
				}
				if !eval.IsTrue(cond) {
					return nil
				}
			}
			matched = true
			it.Out++
			return k(right)
		})
		if err != nil {
			return err
		}
		if !matched && x.Kind == ast.JoinLeft {
			it.pads++
			it.Out++
			padded := left.Child()
			for _, name := range ast.ItemVars(x.Right) {
				padded.Bind(name, value.Null)
			}
			return k(padded)
		}
		return nil
	})
}

// physState is the per-invocation runtime of a block's physical plan,
// reset in its run state: lazily hoisted sources, hash tables and index
// resolutions, indexed by step. The lazy cells synchronize on sync.Once
// so the workers of a parallel scan can share one physState — whichever
// binding first needs a hoisted source or a hash table builds it, and a
// source the naive plan would never evaluate is still never evaluated.
// Counts are never kept here, where workers would share them, but in
// each consumer's chain.
type physState struct {
	phys  *sfwPhys
	outer *eval.Env
	lazy  []stepLazy
	// ord, non-nil only under a reordered chain (which is never
	// parallel), records per step the source ordinal of its current
	// binding; the reorder buffer reads it to key each produced row.
	ord []int64
}

// stepLazy are one step's lazy cells.
type stepLazy struct {
	src lazyValue
	tab lazyTable
	idx lazyIndex
}

func newPhysState(phys *sfwPhys, outer *eval.Env) *physState {
	return &physState{phys: phys, outer: outer, lazy: make([]stepLazy, len(phys.steps))}
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
// pre-filters first (once), then the step chain — partitioned across
// workers when the plan allows a parallel outer scan.
func (r *blockRun) produce() error {
	st, ctx := r.st, r.ctx
	r.pre.In++
	ok, err := filtersPass(ctx, st.outer, st.phys.preC)
	if err != nil || !ok {
		return err
	}
	r.pre.Out++
	switch {
	case len(st.phys.steps) == 0:
		// A FROM-less block: one empty binding, in a child environment so
		// LET never binds into the enclosing one (as produceFrom).
		return r.fromRow(r.c.frame(0, st.outer))
	case st.phys.reorder != nil:
		return r.produceReordered()
	case st.phys.parallel && ctx.Parallelism > 1:
		return r.scanParallel()
	}
	return r.c.run(st.outer, 0)
}

// chain is one consumer's run of the block's step chain: the physState
// (shared by the workers of a parallel scan) plus what is the consumer's
// own — its context, its sink k, the per-step continuations and hash
// probes, the row environments it rebinds and the steps' counts. It is
// built once per run state, not once per invocation, so neither a row
// crossing a step nor a sub-block invocation allocates anything for the
// plumbing.
type chain struct {
	st  *physState
	ctx *eval.Context
	k   emit
	// fns[i] applies step i's pushed filters to a binding it produced and
	// runs step i+1 over it; fns[n+i] is hash step i's probe of one left
	// binding, nil for other steps.
	fns []emit
	// links[i] is the chain's own state of step i; links[0] also holds a
	// FROM-less block's one binding.
	links []link
	// buf and linkBuf back fns and links for chains of up to one step.
	buf     [2]emit
	linkBuf [1]link
}

// link is a chain's own state of one step: the row environment it
// rebinds and the step's counts.
type link struct {
	// frame is the environment the step rebinds its rows into when the
	// plan reuses row environments (phys.reuseEnv); left is the one a hash
	// or index join's left operand, a plain scan, rebinds its rows into.
	frame, left *eval.Env
	// item counts the step's FROM item — its scan, index probe or UNPIVOT,
	// or a JOIN … ON with its operands below it — or, under a hash or
	// index join, the JOIN's left operand, whose bindings probe.
	item itemRun
	// filtered counts the bindings the step's pushed filters kept; they
	// see every binding the step emits. lookups and hits count an index
	// step's or an index join's index lookups and the positions they
	// found.
	filtered, lookups, hits int64
	// join counts a hash or index join, nil for any other step: a plain
	// scan does not carry its size.
	join *joinRun
	// indexProbe is an index join's probe of one left binding, nil for
	// any other step; the hash probe is the step's fns entry.
	indexProbe emit
}

// joinRun is a chain's counts of a hash or index join: its probes in,
// its bindings out and its build time; its bucket or index candidates,
// those the join condition kept and the probes it padded with NULLs;
// and the rows its builds bound, the last build's table being table.
type joinRun struct {
	eval.OpCounts
	candidates, verified, pads, built int64
	table                             *hashTable
}

// fold adds the counts of w, a run of the same join, to j's; a table w
// built is the latest.
func (j *joinRun) fold(w *joinRun) {
	j.Add(w.OpCounts)
	j.candidates += w.candidates
	j.verified += w.verified
	j.pads += w.pads
	j.built += w.built
	if w.table != nil {
		j.table = w.table
	}
}

func (c *chain) init(st *physState, ctx *eval.Context, k emit) *chain {
	n := len(st.phys.steps)
	c.st, c.ctx, c.k, c.fns, c.links = st, ctx, k, c.buf[:], c.linkBuf[:]
	if n > len(c.linkBuf) {
		c.fns, c.links = make([]emit, 2*n), make([]link, n)
	}
	for i := range st.phys.steps {
		step := &st.phys.steps[i]
		c.fns[i], c.fns[n+i] = c.nextFor(i), nil
		switch {
		case step.hash != nil:
			c.links[i].join = new(joinRun)
			c.fns[n+i] = c.probeFor(i, step.hash)
			if step.hash.buildIdx != nil {
				c.links[i].indexProbe = c.indexProbeFor(i, step.hash)
			}
			if step.hash.leftEx != nil {
				c.links[i].item.init(step.hash.leftEx)
			}
		case step.ex != nil:
			c.links[i].item.init(step.ex)
		}
	}
	return c
}

// fold adds the counts of w, a chain over the same steps, to c's.
func (c *chain) fold(w *chain) {
	for i := range c.st.phys.steps {
		l, wl := &c.links[i], &w.links[i]
		l.item.fold(&wl.item)
		l.filtered += wl.filtered
		l.lookups += wl.lookups
		l.hits += wl.hits
		if l.join != nil {
			l.join.fold(wl.join)
		}
	}
}

// frame returns the environment step i binds its next row into, nested in
// env: a new one, or, when the plan reuses row environments, the step's
// own, moved under env to be rebound in place.
func (c *chain) frame(i int, env *eval.Env) *eval.Env {
	if !c.st.phys.reuseEnv {
		return env.Child()
	}
	return reframe(&c.links[i].frame, env)
}

// reframe returns the reused environment *f, moved under env to be
// rebound in place, or made there on first use.
func reframe(f **eval.Env, env *eval.Env) *eval.Env {
	if *f == nil {
		*f = env.Child()
	} else {
		(*f).Rebase(env)
	}
	return *f
}

func (c *chain) nextFor(i int) emit {
	step, l := &c.st.phys.steps[i], &c.links[i]
	if len(step.filters) == 0 && i == len(c.st.phys.steps)-1 {
		return c.k // the last step's unfiltered bindings go straight to the sink
	}
	return func(child *eval.Env) error {
		ok, err := filtersPass(c.ctx, child, step.filtersC)
		if err != nil || !ok {
			return err
		}
		l.filtered++
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
	step, l := &st.phys.steps[i], &c.links[i]
	next, probe := c.fns[i], c.fns[len(st.phys.steps)+i]
	if step.hash != nil {
		// A resolved build-key index replaces the hash table: the index
		// probe reads it from the step's lazy cell.
		if step.hash.buildIdx != nil && st.lazy[i].idx.get(func() *index.Index { return resolveIndex(ctx, step.hash.buildIdx) }) != nil {
			probe = l.indexProbe
		}
		if x, ok := step.hash.left.(*ast.FromExpr); ok && st.phys.reuseEnv {
			// A plain scan on the left rebinds the link's left frame per
			// binding; any other operand produces like the oracle.
			it := &l.item
			defer ctx.Time(&it.Nanos, ctx.Clock())
			src, err := it.ex.src(ctx, env)
			if err != nil {
				return err
			}
			return scanValue(ctx, env, x, src, reframe(&l.left, env), &it.Rows, probe)
		}
		if step.hash.leftEx != nil {
			return produceItem(ctx, env, &l.item, probe)
		}
		return probe(env)
	}
	if step.idx != nil {
		// A nil resolution (index dropped or redeclared since planning)
		// falls through to the scan paths below — the matched conjuncts
		// are still in step.filters, so only the speed changes.
		if ix := st.lazy[i].idx.get(func() *index.Index { return resolveIndex(ctx, step.idx) }); ix != nil {
			return c.runIndexScan(env, i, ix)
		}
	}
	if _, ok := step.item.(*ast.FromExpr); ok {
		src, err := c.source(env, i)
		if err != nil {
			return err
		}
		return c.scan(env, i, src)
	}
	if x, ok := step.item.(*ast.FromUnpivot); ok && step.hoist {
		src, err := c.source(env, i)
		if err != nil {
			return err
		}
		return unpivotValue(ctx, env, x, src, &l.item.Rows, next)
	}
	// Nested-loop JOIN ... ON and correlated UNPIVOT: the producers planned
	// blocks share with the oracle, over the step's compiled item tree.
	return produceItem(ctx, env, &l.item, next)
}

// source evaluates step i's source expression in env: through its
// compiled closure, or once per invocation through the shared hoist cell.
func (c *chain) source(env *eval.Env, i int) (value.Value, error) {
	st, step := c.st, &c.st.phys.steps[i]
	if !step.hoist {
		return step.ex.src(c.ctx, env)
	}
	return st.lazy[i].src.get(func() (value.Value, error) {
		return hoistSource(c.ctx, st.outer, step.ex.src)
	})
}

// scanBatch is the row-slice size of the scan loop: the cancellation poll
// is amortized to one per batch. A power of two a few multiples of the
// eval pollInterval, so batched polling stays on the interpreter's
// cadence.
const scanBatch = 256

// scan is the physical plan's scan operator: every plain FromExpr step
// runs it in place of the naive pipeline's produceItem, over the source
// value source evaluated. A collection's elements go through scanElems;
// a non-collection source (singleton binding, MISSING, a strict fault)
// keeps scanValue's row-at-a-time edge semantics.
//
// governor: the scan materializes nothing — rows stream to the step's
// continuation and are charged at the pipeline's sinks (rowSink,
// groupState, hash build), exactly as in the row-at-a-time path.
func (c *chain) scan(env *eval.Env, i int, src value.Value) error {
	st, step, counts := c.st, &c.st.phys.steps[i], &c.links[i].item.OpCounts
	if !step.hoist {
		// A hoisted step's per-row work is the continuation's, so it
		// carries no timer of its own.
		defer c.ctx.Time(&counts.Nanos, c.ctx.Clock())
	}
	elems, isColl := value.Elements(src)
	if !isColl {
		if st.ord != nil {
			st.ord[i] = 0
		}
		return scanValue(c.ctx, env, step.item.(*ast.FromExpr), src, nil, &counts.Rows, c.fns[i])
	}
	counts.In += int64(len(elems))
	return c.scanElems(env, i, elems, 0, src.Kind() == value.KindArray)
}

// scanElems is the scan operator's one loop, which parallel workers run
// over their chunks too: it binds step i's variables over elems —
// positions base.. of the source, an array when isArray — and runs each
// binding through the step's continuation, with one InterruptedN poll
// per batch. Row order, error points and fault sites are the
// row-at-a-time path's.
func (c *chain) scanElems(env *eval.Env, i int, elems []value.Value, base int, isArray bool) error {
	st, ctx, next, counts := c.st, c.ctx, c.fns[i], &c.links[i].item.OpCounts
	x := st.phys.steps[i].item.(*ast.FromExpr)
	reuse := st.phys.reuseEnv
	var child *eval.Env
	for lo := 0; lo < len(elems); lo += scanBatch {
		hi := min(lo+scanBatch, len(elems))
		if err := ctx.InterruptedN(hi - lo); err != nil {
			return err
		}
		for j := lo; j < hi; j++ {
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.ScanNext); err != nil {
					return err
				}
			}
			if child == nil || !reuse {
				child = c.frame(i, env)
			}
			if st.ord != nil {
				st.ord[i] = int64(base + j)
			}
			bindElem(child, x, elems[j], base+j, isArray)
			counts.Out++
			if err := next(child); err != nil {
				return err
			}
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
// A grouper is part of its block's run state: reset starts an invocation.
type grouper interface {
	reset(outer *eval.Env)
	add(env *eval.Env) error
	flush(k emit) error
	// merge folds in the grouper of a later chunk; it has the receiver's
	// concrete type.
	merge(other grouper)
	// counts are the rows the grouper took in and the groups it emitted.
	counts() *eval.Rows
	// groups is the number of groups flush will emit.
	groups() int
}

// newGrouper picks the block's GROUP BY operator from its physical plan;
// keys evaluate the grouping keys.
func newGrouper(ctx *eval.Context, spec *ast.GroupBy, keys []eval.CompiledExpr, phys *sfwPhys) grouper {
	if phys != nil && phys.stream != nil {
		return newStreamGroup(ctx, spec, keys, phys)
	}
	return newGroupState(ctx, spec, keys)
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
	// keysC evaluate the grouping keys.
	keysC []eval.CompiledExpr
	// ops counts the rows grouped and the groups flushed.
	ops eval.Rows
}

func newGroupState(ctx *eval.Context, spec *ast.GroupBy, keys []eval.CompiledExpr) *groupState {
	return &groupState{
		ctx:     ctx,
		spec:    spec,
		keysC:   keys,
		keyVals: map[string][]value.Value{},
		content: map[string]value.Bag{},
	}
}

func (g *groupState) counts() *eval.Rows { return &g.ops }

func (g *groupState) groups() int { return len(g.order) }

// reset drops the groups of the last invocation; their key slices and
// content bags went out with its bindings and are never reused.
func (g *groupState) reset(outer *eval.Env) {
	g.outer, g.order = outer, g.order[:0]
	clear(g.keyVals)
	clear(g.content)
	// The implicit single group of aggregate-only queries exists even
	// for empty input (SELECT AVG(x) over nothing yields one NULL row).
	if len(g.spec.Keys) == 0 {
		g.order = append(g.order, "")
		g.keyVals[""] = nil
		g.content[""] = nil
	}
}

// add folds one binding environment into its group.
func (g *groupState) add(env *eval.Env) error {
	if err := g.ctx.Interrupted(); err != nil {
		return err
	}
	g.ops.In++
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
		return g.ctx.Gov.ChargeValues("group-by", 1, snap)
	}
	return nil
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
		g.ops.Out++
		env := g.outer.Child()
		for i, key := range g.spec.Keys {
			env.Bind(ast.KeyAlias(key, i), g.keyVals[ks][i])
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
