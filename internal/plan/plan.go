// Package plan executes SQL++ Core query blocks as the paper's "pipeline
// of functional clauses" (§V-B): FROM produces variable bindings, WHERE
// filters them, GROUP BY folds them into groups exposed through GROUP AS,
// HAVING filters groups, and SELECT VALUE constructs the output
// collection, with ORDER BY / LIMIT / OFFSET applied last.
//
// The pipeline streams: each clause is a transformation over a stream of
// binding environments, realized push-style, so FROM/WHERE/SELECT queries
// never materialize intermediate collections. GROUP BY and ORDER BY
// materialize by necessity.
//
// Compile queries with package rewrite first; plan assumes SQL++ Core
// form (SELECT VALUE only, aggregates already lowered to COLL_*).
package plan

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// errStop aborts binding production early (LIMIT pushdown).
var errStop = errors.New("plan: stop iteration")

// Run executes a rewritten query block in env. Install it as ctx.Run:
// a query's root evaluator and every block nested in an expression
// dispatch here (eval runs set operations and WITH itself), and the
// block charges one level of the governor's nesting-depth budget.
func Run(ctx *eval.Context, outer *eval.Env, q *ast.SFW) (value.Value, error) {
	if err := ctx.EnterBlock(); err != nil {
		return nil, err
	}
	defer func() { ctx.Depth-- }()
	// Stamp the block position so a recovered panic can report where the
	// plan was; one field store, no restore — innermost wins.
	ctx.PlanPos = q.Pos()
	if q.Select.Value == nil {
		return nil, fmt.Errorf("plan: query block not in Core form (SELECT sugar not lowered) at %s", q.Pos())
	}
	phys, _ := q.Phys.(*sfwPhys)
	var ex *clauseExprs
	if phys != nil {
		ex = &phys.clauseExprs
		if phys.stream != nil {
			// A streamed GROUP BY runs its post-group clauses from the copy
			// of the block whose fold calls read aggregate slots.
			q = phys.stream.post
		}
	} else {
		// The oracle runs WHERE whole, in clause position.
		interpreted := newClauseExprs(q, []ast.Expr{q.Where}, eval.Interpret)
		ex = &interpreted
	}
	limit, err := clauseCount(ctx, outer, ex.limit, q.Limit, "LIMIT", -1)
	if err != nil {
		return nil, err
	}
	offset, err := clauseCount(ctx, outer, ex.offset, q.Offset, "OFFSET", 0)
	if err != nil {
		return nil, err
	}

	// EXPLAIN ANALYZE: create this block's node and pre-create its
	// operator skeleton in pipeline order, then make the block the parent
	// for everything (including subqueries) executed while it runs.
	var block *eval.StatsNode
	if ctx.Stats != nil {
		op := "select"
		if q.Select.PivotAt != nil {
			op = "pivot"
		}
		block = ctx.Stats.Node(ctx.ParentNode(), q, "block", op, q.Pos().String())
		buildBlockSkeleton(ctx, q, phys, limit, offset, block)
		saved := ctx.StatsParent
		ctx.StatsParent = block
		defer func() { ctx.StatsParent = saved }()
		defer block.Timer()()
	}

	res, err := runFor(ctx, q, ex, phys).run(outer, limit, offset)
	if err != nil {
		return nil, err
	}
	if block != nil {
		block.SetOut(resultLen(res))
	}
	return res, nil
}

// emit consumes one binding environment; returning an error aborts the
// stream (errStop aborts without failing the query).
type emit func(*eval.Env) error

// clauseExprs are the evaluators of the clause expressions every block
// runs, planned or not: the WHERE conjuncts left in clause position, LET
// sources, GROUP BY keys, HAVING, window keys and arguments, the SELECT
// projection (with a PIVOT's name), ORDER BY keys, LIMIT and OFFSET. The
// evaluator is chosen once per path, where the closures are made —
// eval.Compile when the optimizer plans the block, eval.Interpret on the
// reference oracle, which has no plan — so the operators below hold
// closures and no AST to fall back on.
type clauseExprs struct {
	where         []eval.CompiledExpr
	lets          []eval.CompiledExpr
	group         []eval.CompiledExpr
	having        eval.CompiledExpr
	windows       []windowExprs
	sel           eval.CompiledExpr
	pivotAt       eval.CompiledExpr
	order         []eval.CompiledExpr
	limit, offset eval.CompiledExpr
}

// newClauseExprs lowers q's clause expressions with compile; where are the
// WHERE conjuncts that run in clause position, nil ones skipped.
//
// governor: accumulation bounded by the block's clause count, AST size.
func newClauseExprs(q *ast.SFW, where []ast.Expr, compile func(ast.Expr) eval.CompiledExpr) clauseExprs {
	ex := clauseExprs{
		having: compile(q.Having), sel: compile(q.Select.Value), pivotAt: compile(q.Select.PivotAt),
		limit: compile(q.Limit), offset: compile(q.Offset),
	}
	for _, w := range where {
		if w != nil {
			ex.where = append(ex.where, compile(w))
		}
	}
	for i := range q.Windows {
		ex.windows = append(ex.windows, newWindowExprs(&q.Windows[i], compile))
	}
	for _, l := range q.Lets {
		ex.lets = append(ex.lets, compile(l.Expr))
	}
	if q.GroupBy != nil {
		for _, key := range q.GroupBy.Keys {
			ex.group = append(ex.group, compile(key.Expr))
		}
	}
	for _, ob := range q.OrderBy {
		ex.order = append(ex.order, compile(ob.Expr))
	}
	return ex
}

// rowSink collects a block's projected rows: DISTINCT filtering, ORDER
// BY key evaluation (full sort or bounded top-K heap), LIMIT early-stop,
// and the collection-size guard. A PIVOT block's sink collects (name,
// value) pairs instead and finishes them into one tuple. The sink is part
// of its block's run state: reset, not rebuilt, per invocation.
type rowSink struct {
	ctx *eval.Context
	q   *ast.SFW
	// ex evaluates the SELECT projection and the ORDER BY keys.
	ex      *clauseExprs
	ordered bool
	// stopAt is offset+limit when LIMIT can stop the pipeline early
	// (no ORDER BY, DISTINCT, GROUP BY, or windows); -1 otherwise.
	stopAt int64
	out    []value.Value
	// keys hold one string per row of out: its canonical DISTINCT key,
	// kept only for parallel workers so the merge can re-deduplicate
	// globally, or, in a PIVOT block's sink, its attribute name.
	keys     []string
	keepKeys bool
	// parked marks the sink of a run state an invocation has reused.
	parked bool
	// orderKeys are the ORDER BY keys of the full-sort buffer, one flat
	// slice beside out: row r's w keys are orderKeys[r*w:(r+1)*w]. perm
	// is the sorted order of out's rows.
	orderKeys []value.Value
	perm      []int
	// top is the bounded heap of ORDER BY … LIMIT, nil otherwise.
	top *topKHeap
	// rowKeys receives the ORDER BY keys of the row on offer. late marks
	// projection deferred behind the top-K heap (see projectTopK).
	rowKeys []value.Value
	late    bool
	seen    map[string]bool
	keyBuf  []byte
	seq     int
	// gov is the resolved resource governor, nil when ungoverned; like
	// the stats nodes it is resolved once so project() pays a nil test.
	gov *eval.Governor
	// EXPLAIN ANALYZE nodes, nil when instrumentation is off. They are
	// resolved per invocation so project() pays a nil test per row.
	stDistinct *eval.StatsNode
	stOrder    *eval.StatsNode
	stLimit    *eval.StatsNode
}

// reset empties the sink for an invocation under its LIMIT and OFFSET.
func (s *rowSink) reset(limit, offset int64) {
	s.out, s.keys, s.orderKeys = s.out[:0], s.keys[:0], s.orderKeys[:0]
	clear(s.seen)
	s.seq, s.stopAt, s.late = 0, -1, false
	q := s.q
	if limit >= 0 {
		if s.ordered {
			// Top-K: ORDER BY ... LIMIT k needs only the offset+limit
			// smallest rows under (sort key, arrival order), which is
			// exactly what a stable full sort would slice off. A block has
			// its LIMIT on every invocation or on none, so the heap stays.
			if s.top == nil {
				s.top = new(topKHeap)
			}
			s.top.reset(int(offset+limit), q.OrderBy)
			// Under stop-on-error typing every row's projection must run, so
			// that a type fault in a row the heap would discard still fails
			// the query; DISTINCT needs the projected value before the heap.
			s.late = !q.Select.Distinct && s.ctx.Mode != eval.StopOnError
		} else if !q.Select.Distinct && q.GroupBy == nil && len(q.Windows) == 0 {
			s.stopAt = offset + limit
		}
	}
	if ctx := s.ctx; ctx.Stats != nil {
		parent := ctx.ParentNode()
		if q.Select.Distinct {
			s.stDistinct = ctx.Stats.Node(parent, q, "distinct", "distinct", "")
		}
		if s.ordered {
			op := "order-by"
			if s.top != nil {
				op = "top-k"
			}
			s.stOrder = ctx.Stats.Node(parent, q, "order", op, "")
		}
		s.stLimit = nil
		if limit >= 0 || offset > 0 {
			s.stLimit = ctx.Stats.Node(parent, q, "limit", "limit", "")
		}
	}
}

// pivot evaluates a PIVOT block's attribute name and value for one
// binding (§VI-B) and collects the pair. A name that is not a string is
// a type error under stop-on-error and skips the binding in permissive
// mode; a MISSING value adds no attribute.
func (s *rowSink) pivot(env *eval.Env) error {
	nameV, err := s.ex.pivotAt(s.ctx, env)
	if err != nil {
		return err
	}
	name, ok := nameV.(value.String)
	if !ok {
		if s.ctx.Mode == eval.StopOnError {
			return &eval.TypeError{Pos: s.q.Select.PivotAt.Pos(), Op: "PIVOT", Detail: "attribute name is " + nameV.Kind().String()}
		}
		return nil
	}
	v, err := s.ex.sel(s.ctx, env)
	if err != nil {
		return err
	}
	if v.Kind() != value.KindMissing {
		s.keys = append(s.keys, string(name))
		s.out = append(s.out, v)
		if err := checkSize(s.ctx, len(s.out)); err != nil {
			return err
		}
	}
	if s.gov != nil {
		return s.gov.ChargeValues("pivot", 1, v)
	}
	return nil
}

// orderKeysOf evaluates the ORDER BY keys of env into rowKeys.
func (s *rowSink) orderKeysOf(env *eval.Env) error {
	for i, key := range s.ex.order {
		kv, err := key(s.ctx, env)
		if err != nil {
			return err
		}
		s.rowKeys[i] = kv
	}
	return nil
}

// project evaluates SELECT VALUE for one binding and folds the row in.
func (s *rowSink) project(env *eval.Env) error {
	if s.late {
		return s.projectTopK(env)
	}
	v, err := s.ex.sel(s.ctx, env)
	if err != nil {
		return err
	}
	if v.Kind() == value.KindMissing {
		// A MISSING output value vanishes from a bag result; in an
		// ordered (array) result it becomes NULL to keep positions,
		// mirroring the bag/array constructors.
		if !s.ordered {
			return nil
		}
		v = value.Null
	}
	var rowKey string
	if s.q.Select.Distinct {
		if s.stDistinct != nil {
			s.stDistinct.AddIn(1)
		}
		s.keyBuf = value.AppendKey(s.keyBuf[:0], v)
		if s.seen[string(s.keyBuf)] {
			return nil
		}
		rowKey = string(s.keyBuf)
		s.seen[rowKey] = true
		if err := checkSize(s.ctx, len(s.seen)); err != nil {
			return err
		}
		if s.gov != nil {
			if err := s.gov.ChargeValues("distinct", 1, nil); err != nil {
				return err
			}
		}
		if s.stDistinct != nil {
			s.stDistinct.AddOut(1)
		}
	}
	if s.ordered {
		// The ORDER BY buffer is a materialization point: poll for
		// cancellation here too, so a deadline is honoured even when the
		// rows arrive from an already-materialized (hoisted) source whose
		// scan no longer polls per element.
		if err := s.ctx.Interrupted(); err != nil {
			return err
		}
		if s.stOrder != nil {
			s.stOrder.AddIn(1)
		}
		if err := s.orderKeysOf(env); err != nil {
			return err
		}
		if s.top != nil {
			r := sortRow{val: v, keys: s.rowKeys, seq: s.seq}
			s.seq++
			grew := s.top.Len() < s.top.k
			if s.top.admits(r) {
				s.top.insert(r)
			}
			if grew && s.gov != nil {
				return s.gov.ChargeOutput("order-by", 1, v)
			}
			return nil
		}
		s.out = append(s.out, v)
		s.orderKeys = append(s.orderKeys, s.rowKeys...)
		if s.gov != nil {
			if err := s.gov.ChargeOutput("order-by", 1, v); err != nil {
				return err
			}
		}
		return checkSize(s.ctx, len(s.out))
	}
	s.out = append(s.out, v)
	if s.keepKeys {
		s.keys = append(s.keys, rowKey)
	}
	if s.gov != nil {
		if err := s.gov.ChargeOutput("select", 1, v); err != nil {
			return err
		}
	}
	if err := checkSize(s.ctx, len(s.out)); err != nil {
		return err
	}
	if s.stopAt >= 0 && int64(len(s.out)) >= s.stopAt {
		return errStop
	}
	return nil
}

// projectTopK is project for ORDER BY … LIMIT under permissive typing:
// the sort keys are evaluated first, into rowKeys, and SELECT VALUE
// only for a row the heap admits — of n rows all are counted and
// compared, but only the O(k log n) that enter the heap are projected.
func (s *rowSink) projectTopK(env *eval.Env) error {
	if err := s.ctx.Interrupted(); err != nil {
		return err
	}
	if s.stOrder != nil {
		s.stOrder.AddIn(1)
	}
	if err := s.orderKeysOf(env); err != nil {
		return err
	}
	r := sortRow{keys: s.rowKeys, seq: s.seq}
	s.seq++
	if !s.top.admits(r) {
		return nil
	}
	v, err := s.ex.sel(s.ctx, env)
	if err != nil {
		return err
	}
	if v.Kind() == value.KindMissing {
		v = value.Null // an ordered result keeps positions
	}
	r.val = v
	grew := s.top.Len() < s.top.k
	s.top.insert(r)
	if grew && s.gov != nil {
		return s.gov.ChargeOutput("order-by", 1, v)
	}
	return nil
}

// merge appends a parallel worker's rows, the next chunk in scan order,
// re-deduplicating DISTINCT rows by their kept keys; a PIVOT's pairs
// concatenate like rows.
//
// governor:charged-at each worker's project/pivot, checkSize bounding
// the combined count.
func (s *rowSink) merge(w *rowSink) error {
	for j, v := range w.out {
		if s.seen != nil {
			if err := s.ctx.Interrupted(); err != nil {
				return err
			}
			if s.seen[w.keys[j]] {
				continue
			}
			s.seen[w.keys[j]] = true
		}
		s.out = append(s.out, v)
	}
	if s.q.Select.PivotAt != nil {
		s.keys = append(s.keys, w.keys...)
	}
	return checkSize(s.ctx, len(s.out))
}

// Shared empty answers: an empty invocation allocates nothing.
var (
	emptyBag   value.Value = value.Bag(nil)
	emptyArray value.Value = value.Array{}
)

// finish sorts (if ordered) and applies LIMIT/OFFSET, returning the
// block's result collection — or, for a PIVOT block, its one tuple. A
// reused sink copies the answer into one exact-size slice, so it shares
// no storage with the next invocation; otherwise the answer takes over
// the buffer.
func (s *rowSink) finish(limit, offset int64) value.Value {
	if s.q.Select.PivotAt != nil {
		t := value.EmptyTuple()
		for i, v := range s.out {
			t.Put(s.keys[i], v)
		}
		return t
	}
	n := len(s.out)
	var top []sortRow
	if s.ordered {
		var stopSort func()
		if s.stOrder != nil {
			stopSort = s.stOrder.Timer()
		}
		if s.top != nil {
			top = s.top.finish()
			n = len(top)
			if s.stOrder != nil {
				s.stOrder.Counter("heap_evictions").Store(s.top.evicted)
			}
		} else {
			s.sort()
		}
		if stopSort != nil {
			stopSort()
			s.stOrder.AddOut(int64(n))
		}
	}
	if s.stLimit != nil {
		s.stLimit.AddIn(int64(n))
	}
	lo, hi := limitWindow(n, limit, offset)
	if s.stLimit != nil {
		s.stLimit.AddOut(int64(hi - lo))
	}
	switch {
	case lo == hi && s.ordered:
		return emptyArray
	case lo == hi:
		return emptyBag
	case !s.ordered && s.parked:
		return value.Bag(slices.Clone(s.out[lo:hi]))
	case !s.ordered:
		ans := s.out[lo:hi]
		s.out = nil // the answer owns the buffer now
		return value.Bag(ans)
	}
	out := make([]value.Value, hi-lo)
	for i := range out {
		if top != nil {
			out[i] = top[lo+i].val
		} else {
			out[i] = s.out[s.perm[lo+i]]
		}
	}
	return value.Array(out)
}

// sort orders the full-sort buffer stably by the ORDER BY items into
// perm.
//
// governor:charged-at project — perm holds one index per buffered row.
func (s *rowSink) sort() {
	w := len(s.ex.order)
	s.perm = s.perm[:0]
	for i := range s.out {
		s.perm = append(s.perm, i)
	}
	slices.SortStableFunc(s.perm, func(a, b int) int {
		return cmpKeys(s.orderKeys[a*w:(a+1)*w], s.orderKeys[b*w:(b+1)*w], s.q.OrderBy)
	})
}

// blockRun is the run state of one query block in one execution, the
// mutable half beside the plan built at prepare (sfwPhys and its
// compiled clauseExprs). The stages downstream of FROM are its methods
// and fields: fromRow, the grouper, postGroup and the row sink. A nested
// block's later entries in an execution — a correlated subquery runs
// once per outer binding — reset and reuse its run state, so an
// invocation allocates only its answer. A run state belongs to one
// Context and so to one goroutine, and never outlives the execution.
type blockRun struct {
	ctx *eval.Context
	// q is the block, in its post-group form when GROUP BY streams.
	q  *ast.SFW
	ex *clauseExprs
	// st holds the plan's lazily hoisted sources, hash tables and index
	// resolutions, nil on the reference oracle; the workers of a parallel
	// scan share their block's.
	st *physState
	// from are the oracle's FROM items, nil under a plan.
	from []*itemExprs
	c    chain
	sink rowSink
	grp  grouper // nil without GROUP BY
	// windowEnvs are the post-group bindings window functions need
	// complete before any row's value is known.
	windowEnvs []*eval.Env
	// fromRow and, with GROUP BY, postGroup as method values, made once.
	fromRowFn, postGroupFn emit
	// EXPLAIN ANALYZE nodes of the clause-position filters, nil when
	// instrumentation is off.
	stWhere, stHaving *eval.StatsNode
}

// newBlockRun builds a run state for block q with clause evaluators ex
// under plan phys — nil on the oracle path, whose FROM items it
// interprets; a parallel worker's joins its block's physState st.
func newBlockRun(ctx *eval.Context, q *ast.SFW, ex *clauseExprs, phys *sfwPhys, st *physState) *blockRun {
	r := &blockRun{ctx: ctx, q: q, ex: ex}
	if phys == nil {
		r.from = make([]*itemExprs, len(q.From))
		for i, item := range q.From {
			r.from[i] = newItemExprs(item, eval.Interpret)
		}
	}
	r.fromRowFn = r.fromRow
	r.sink = rowSink{ctx: ctx, q: q, ex: r.ex, ordered: len(q.OrderBy) > 0, gov: ctx.Gov, rowKeys: make([]value.Value, len(r.ex.order))}
	if q.Select.Distinct {
		r.sink.seen = map[string]bool{}
	}
	if q.GroupBy != nil {
		r.grp = newGrouper(ctx, q.GroupBy, r.ex.group, phys)
		r.postGroupFn = r.postGroup
	}
	if phys != nil {
		if st == nil {
			st = newPhysState(ctx, phys, nil)
		}
		r.st = st
		r.c.init(st, ctx, r.fromRowFn)
	}
	if ctx.Stats != nil {
		parent := ctx.ParentNode()
		if len(r.ex.where) > 0 {
			label := "where"
			if phys != nil {
				label = "residual"
			}
			r.stWhere = ctx.Stats.Node(parent, q, "where", "filter", label)
		}
		if q.Having != nil {
			r.stHaving = ctx.Stats.Node(parent, q, "having", "filter", "having")
		}
	}
	return r
}

// runFor returns the run state of block q's invocation: a new one on the
// oracle path and for the top-level block, which runs once; for a nested
// planned block the one parked in ctx.Runs under the block's slot. A
// block is never entered while it runs, so one run state per block is
// enough, and every entry resets it.
func runFor(ctx *eval.Context, q *ast.SFW, ex *clauseExprs, phys *sfwPhys) *blockRun {
	if phys == nil || ctx.Depth <= 1 {
		return newBlockRun(ctx, q, ex, phys, nil)
	}
	if phys.slot < len(ctx.Runs) {
		if r, ok := ctx.Runs[phys.slot].(*blockRun); ok && r.st.phys == phys {
			r.sink.parked = true
			return r
		}
	} else {
		ctx.Runs = slices.Grow(ctx.Runs, phys.slot+1-len(ctx.Runs))[:phys.slot+1]
	}
	r := newBlockRun(ctx, q, ex, phys, nil)
	ctx.Runs[phys.slot] = r
	return r
}

// reset readies the sink, grouper and window buffer for an invocation.
func (r *blockRun) reset(outer *eval.Env, limit, offset int64) {
	r.sink.reset(limit, offset)
	if r.grp != nil {
		r.grp.reset(outer)
	}
	clear(r.windowEnvs)
	r.windowEnvs = r.windowEnvs[:0]
}

// run executes one invocation of the block in outer.
func (r *blockRun) run(outer *eval.Env, limit, offset int64) (value.Value, error) {
	r.reset(outer, limit, offset)
	var err error
	if r.st != nil {
		r.st.outer = outer
		clear(r.st.lazy) // hoisted sources and hash tables are per invocation
		err = r.produce()
	} else {
		err = produceFrom(r.ctx, outer, r.from, r.fromRowFn)
	}
	if err != nil && err != errStop {
		return nil, err
	}
	if r.grp != nil {
		if err := r.grp.flush(r.postGroupFn); err != nil && err != errStop {
			return nil, err
		}
	}
	if len(r.q.Windows) > 0 {
		ctx := r.ctx
		var stopWin func()
		if ctx.Stats != nil {
			wn := ctx.Stats.Node(ctx.ParentNode(), r.q, "window", "window", "")
			wn.AddIn(int64(len(r.windowEnvs)))
			wn.AddOut(int64(len(r.windowEnvs)))
			stopWin = wn.Timer()
		}
		if err := computeWindows(ctx, r.q.Windows, r.ex.windows, r.windowEnvs); err != nil {
			return nil, err
		}
		if stopWin != nil {
			stopWin()
		}
		for _, wenv := range r.windowEnvs {
			if err := r.sink.project(wenv); err != nil {
				if err == errStop {
					break
				}
				return nil, err
			}
		}
	}
	return r.sink.finish(limit, offset), nil
}

// fromRow runs LET and then the clause-position WHERE conjuncts (all of
// WHERE without a plan, the optimizer's residual with one) over one
// binding, and passes it to the grouper or, without GROUP BY, postGroup.
func (r *blockRun) fromRow(env *eval.Env) error {
	if len(r.q.Lets) > 0 && r.st != nil && r.st.phys.reuseEnv {
		// LET binds into the row's own scope, which a reused frame keeps
		// across rows and invocations. The LET names leave with the row,
		// so the next row's LET expressions never read a stale binding in
		// place of an outer one (LET v = v * 2 reads the enclosing v).
		defer env.Truncate(env.Len())
	}
	ctx := r.ctx
	for i, l := range r.q.Lets {
		v, err := r.ex.lets[i](ctx, env)
		if err != nil {
			return err
		}
		env.Bind(l.Name, v)
	}
	if len(r.ex.where) > 0 {
		if r.stWhere != nil {
			r.stWhere.AddIn(1)
		}
		ok, err := filtersPass(ctx, env, r.ex.where)
		if err != nil || !ok {
			return err
		}
		if r.stWhere != nil {
			r.stWhere.AddOut(1)
		}
	}
	if r.grp != nil {
		return r.grp.add(env)
	}
	return r.postGroup(env)
}

// postGroup runs HAVING over a group-output binding, then projects it
// or, when the block has window functions, keeps it for them.
func (r *blockRun) postGroup(env *eval.Env) error {
	ctx := r.ctx
	if r.q.Having != nil {
		if r.stHaving != nil {
			r.stHaving.AddIn(1)
		}
		cond, err := r.ex.having(ctx, env)
		if err != nil {
			return err
		}
		if !eval.IsTrue(cond) {
			return nil
		}
		if r.stHaving != nil {
			r.stHaving.AddOut(1)
		}
	}
	if len(r.q.Windows) > 0 {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		r.windowEnvs = append(r.windowEnvs, env)
		if ctx.Gov != nil {
			if err := ctx.Gov.ChargeValues("window", 1, nil); err != nil {
				return err
			}
		}
		return checkSize(ctx, len(r.windowEnvs))
	}
	if r.q.Select.PivotAt != nil {
		return r.sink.pivot(env)
	}
	return r.sink.project(env)
}

// clauseCount evaluates the LIMIT or OFFSET count e through c in the
// outer environment; absent is what an absent clause counts (LIMIT -1).
func clauseCount(ctx *eval.Context, outer *eval.Env, c eval.CompiledExpr, e ast.Expr, clause string, absent int64) (int64, error) {
	if c == nil {
		return absent, nil
	}
	v, err := c(ctx, outer)
	if err != nil {
		return 0, err
	}
	n, ok := value.AsInt(v)
	if !ok || n < 0 {
		return 0, fmt.Errorf("plan: %s must be a non-negative integer, got %s at %s", clause, v, e.Pos())
	}
	return n, nil
}

// limitWindow is the [lo, hi) range of n rows that OFFSET and LIMIT
// keep; limit is -1 when absent.
func limitWindow(n int, limit, offset int64) (lo, hi int) {
	lo, hi = n, n
	if offset < int64(n) {
		lo = int(offset)
	}
	if limit >= 0 && limit < int64(hi-lo) {
		hi = lo + int(limit)
	}
	return lo, hi
}

// checkSize enforces the context's collection-size guard.
func checkSize(ctx *eval.Context, n int) error {
	if ctx.MaxCollectionSize > 0 && n > ctx.MaxCollectionSize {
		return fmt.Errorf("plan: intermediate collection exceeds limit of %d values", ctx.MaxCollectionSize)
	}
	return nil
}

type sortRow struct {
	val  value.Value
	keys []value.Value
	// seq is the row's arrival order; the top-K heap breaks sort-key
	// ties on it to reproduce the stable full sort exactly.
	seq int
}

// cmpKeys orders two rows by their ORDER BY keys using the SQL++ total
// order, honouring DESC and NULLS FIRST/LAST. In the total order the
// absent values sort lowest, which matches SQL's NULLS-FIRST-ascending
// when no modifier is given; an explicit modifier overrides.
func cmpKeys(a, b []value.Value, items []ast.OrderItem) int {
	for k, o := range items {
		av, bv := a[k], b[k]
		aAbs, bAbs := value.IsAbsent(av), value.IsAbsent(bv)
		if aAbs != bAbs && o.NullsFirst != nil {
			if *o.NullsFirst == aAbs {
				return -1
			}
			return 1
		}
		c := value.Compare(av, bv)
		if c == 0 {
			continue
		}
		if o.Desc {
			return -c
		}
		return c
	}
	return 0
}

// topKHeap keeps the k first rows of the stable ORDER BY order: a
// max-heap under (sort key, arrival order) whose root is the worst row
// kept so far. ORDER BY ... LIMIT then costs O(n log k) time and O(k)
// space instead of materializing and sorting all n rows.
type topKHeap struct {
	k     int
	items []ast.OrderItem
	rows  []sortRow
	// evicted counts root replacements once the heap is full — the rows a
	// full sort would have materialized but the heap discarded.
	evicted int64
}

// reset empties the heap to keep the k first rows under items.
func (h *topKHeap) reset(k int, items []ast.OrderItem) {
	h.k, h.items, h.rows, h.evicted = k, items, h.rows[:0], 0
}

// before reports whether a precedes b in the final output order.
func (h *topKHeap) before(a, b sortRow) bool {
	c := cmpKeys(a.keys, b.keys, h.items)
	return c < 0 || (c == 0 && a.seq < b.seq)
}

func (h *topKHeap) Len() int           { return len(h.rows) }
func (h *topKHeap) Less(i, j int) bool { return h.before(h.rows[j], h.rows[i]) }
func (h *topKHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topKHeap) Push(x any)         { h.rows = append(h.rows, x.(sortRow)) }
func (h *topKHeap) Pop() any {
	r := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return r
}

// admits reports whether r belongs among the k rows kept so far.
func (h *topKHeap) admits(r sortRow) bool {
	return len(h.rows) < h.k || (h.k > 0 && h.before(r, h.rows[0]))
}

// insert adds an admitted row, evicting the root once the heap is full.
// A row tying the current worst is never admitted: its arrival order
// places it after every row already kept. r's keys are the sink's
// rowKeys; the heap copies them into storage it keeps — a slice left by
// an earlier invocation or a new one while the heap grows, the evicted
// root's once it is full.
func (h *topKHeap) insert(r sortRow) {
	offered := r.keys
	if n := len(h.rows); n < h.k {
		var keys []value.Value
		if n < cap(h.rows) {
			keys = h.rows[:n+1][n].keys[:0]
		}
		r.keys = append(keys, offered...)
		h.rows = append(h.rows, r)
		heap.Fix(h, n)
		return
	}
	r.keys = h.rows[0].keys
	copy(r.keys, offered)
	h.rows[0] = r
	heap.Fix(h, 0)
	h.evicted++
}

// finish returns the kept rows in output order.
func (h *topKHeap) finish() []sortRow {
	rows := h.rows
	sort.Slice(rows, func(i, j int) bool { return h.before(rows[i], rows[j]) })
	return rows
}
