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
	"sort"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// errStop aborts binding production early (LIMIT pushdown).
var errStop = errors.New("plan: stop iteration")

// Run executes a rewritten query expression in env. Install it as
// ctx.Run so nested query blocks inside expressions execute through it.
// Every query-block form passes through here, so this is where the
// governor's nesting-depth budget is enforced: a deeply nested GROUP AS
// or subquery tower fails with a typed ResourceError instead of
// recursing without bound.
func Run(ctx *eval.Context, env *eval.Env, e ast.Expr) (value.Value, error) {
	switch e.(type) {
	case *ast.SFW, *ast.SetOp, *ast.With:
	default:
		return eval.Eval(ctx, env, e)
	}
	if ctx.Gov != nil {
		if err := ctx.Gov.CheckDepth(ctx.Depth + 1); err != nil {
			return nil, err
		}
	}
	ctx.Depth++
	v, err := runBlock(ctx, env, e)
	ctx.Depth--
	return v, err
}

// runBlock dispatches one query-block form; Run has already accounted
// for its nesting depth.
func runBlock(ctx *eval.Context, env *eval.Env, e ast.Expr) (value.Value, error) {
	switch q := e.(type) {
	case *ast.SFW:
		return runSFW(ctx, env, q)
	case *ast.SetOp:
		return runSetOp(ctx, env, q)
	case *ast.With:
		child := env.Child()
		for _, b := range q.Bindings {
			v, err := Run(ctx, child, b.Expr)
			if err != nil {
				return nil, err
			}
			child.Bind(b.Name, v)
		}
		return Run(ctx, child, q.Body)
	default:
		return eval.Eval(ctx, env, e)
	}
}

// emit consumes one binding environment; returning an error aborts the
// stream (errStop aborts without failing the query).
type emit func(*eval.Env) error

// clauseExprs are the evaluators of the clause expressions every block
// runs, planned or not: the WHERE conjuncts left in clause position, LET
// sources, GROUP BY keys, HAVING, the SELECT projection (with a PIVOT's
// name) and ORDER BY keys. The evaluator is chosen once, where the
// closures are made — eval.Compile when the optimizer plans the block,
// eval.Interpret when the optimizer is disabled (the reference oracle) —
// so the operators below hold closures and no AST to fall back on.
type clauseExprs struct {
	where   []eval.CompiledExpr
	lets    []eval.CompiledExpr
	group   []eval.CompiledExpr
	having  eval.CompiledExpr
	sel     eval.CompiledExpr
	pivotAt eval.CompiledExpr
	order   []eval.CompiledExpr
}

// newClauseExprs lowers q's clause expressions with compile; where are the
// WHERE conjuncts that run in clause position.
//
// governor: accumulation bounded by the block's clause count, AST size.
func newClauseExprs(q *ast.SFW, where []ast.Expr, compile func(ast.Expr) eval.CompiledExpr) clauseExprs {
	ex := clauseExprs{having: compile(q.Having), sel: compile(q.Select.Value), pivotAt: compile(q.Select.PivotAt)}
	for _, w := range where {
		ex.where = append(ex.where, compile(w))
	}
	for _, l := range q.Lets {
		ex.lets = append(ex.lets, compile(l.Expr))
	}
	if q.GroupBy != nil {
		ex.group = groupKeyExprs(q.GroupBy, compile)
	}
	for _, ob := range q.OrderBy {
		ex.order = append(ex.order, compile(ob.Expr))
	}
	return ex
}

// groupKeyExprs lowers a GROUP BY's key expressions with compile.
func groupKeyExprs(spec *ast.GroupBy, compile func(ast.Expr) eval.CompiledExpr) []eval.CompiledExpr {
	keys := make([]eval.CompiledExpr, len(spec.Keys))
	for i, key := range spec.Keys {
		keys[i] = compile(key.Expr)
	}
	return keys
}

// rowSink collects a block's projected rows: DISTINCT filtering, ORDER
// BY key evaluation (full sort or bounded top-K heap), LIMIT early-stop,
// and the collection-size guard. A PIVOT block's sink collects (name,
// value) pairs instead and finishes them into one tuple. The parallel
// executor runs one sink per worker and merges them in chunk order,
// which is why the sink is a struct rather than closure state.
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
	rows     []sortRow
	top      *topKHeap
	// lateKeys is non-nil when projection is deferred behind the top-K
	// heap (see projectTopK): the scratch the ORDER BY keys of the row on
	// offer are evaluated into.
	lateKeys []value.Value
	seen     map[string]bool
	keyBuf   []byte
	seq      int
	// gov is the resolved resource governor, nil when ungoverned; like
	// the stats nodes it is resolved once so project() pays a nil test.
	gov *eval.Governor
	// EXPLAIN ANALYZE nodes, nil when instrumentation is off. They are
	// resolved once here so project() pays a nil test per row.
	stDistinct *eval.StatsNode
	stOrder    *eval.StatsNode
	stLimit    *eval.StatsNode
}

func newRowSink(ctx *eval.Context, q *ast.SFW, ex *clauseExprs, ordered bool, limit, offset int64) *rowSink {
	s := &rowSink{ctx: ctx, q: q, ex: ex, ordered: ordered, stopAt: -1, gov: ctx.Gov}
	if q.Select.Distinct {
		s.seen = map[string]bool{}
	}
	if limit >= 0 {
		if ordered {
			// Top-K: ORDER BY ... LIMIT k needs only the offset+limit
			// smallest rows under (sort key, arrival order), which is
			// exactly what a stable full sort would slice off.
			s.top = newTopKHeap(int(offset+limit), q.OrderBy)
			// Under stop-on-error typing every row's projection must run, so
			// that a type fault in a row the heap would discard still fails
			// the query; DISTINCT needs the projected value before the heap.
			if !q.Select.Distinct && ctx.Mode != eval.StopOnError {
				s.lateKeys = make([]value.Value, len(ex.order))
			}
		} else if !q.Select.Distinct && q.GroupBy == nil && len(q.Windows) == 0 {
			s.stopAt = offset + limit
		}
	}
	if ctx.Stats != nil {
		parent := statsParent(ctx)
		if q.Select.Distinct {
			s.stDistinct = ctx.Stats.Node(parent, q, "distinct", "distinct", "")
		}
		if ordered {
			op := "order-by"
			if s.top != nil {
				op = "top-k"
			}
			s.stOrder = ctx.Stats.Node(parent, q, "order", op, "")
		}
		if limit >= 0 || offset > 0 {
			s.stLimit = ctx.Stats.Node(parent, q, "limit", "limit", "")
		}
	}
	return s
}

// consumer is the sink's per-binding entry, chosen once per block: pivot
// for a PIVOT block, project otherwise.
func (s *rowSink) consumer() emit {
	if s.q.Select.PivotAt != nil {
		return s.pivot
	}
	return s.project
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

// project evaluates SELECT VALUE for one binding and folds the row in.
func (s *rowSink) project(env *eval.Env) error {
	if s.lateKeys != nil {
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
		keys := make([]value.Value, len(s.ex.order))
		for i, key := range s.ex.order {
			kv, err := key(s.ctx, env)
			if err != nil {
				return err
			}
			keys[i] = kv
		}
		r := sortRow{val: v, keys: keys, seq: s.seq}
		s.seq++
		if s.top != nil {
			grew := s.top.Len() < s.top.k
			s.top.offer(r)
			if grew && s.gov != nil {
				return s.gov.ChargeOutput("order-by", 1, v)
			}
			return nil
		}
		s.rows = append(s.rows, r)
		if s.gov != nil {
			if err := s.gov.ChargeOutput("order-by", 1, v); err != nil {
				return err
			}
		}
		return checkSize(s.ctx, len(s.rows))
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
// the sort keys are evaluated first, into a reused scratch, and SELECT
// VALUE only for a row the heap admits — of n rows all are counted and
// compared, but only the O(k log n) that enter the heap are projected,
// and a row that replaces the root takes over the root's key slice.
func (s *rowSink) projectTopK(env *eval.Env) error {
	if err := s.ctx.Interrupted(); err != nil {
		return err
	}
	if s.stOrder != nil {
		s.stOrder.AddIn(1)
	}
	for i, key := range s.ex.order {
		kv, err := key(s.ctx, env)
		if err != nil {
			return err
		}
		s.lateKeys[i] = kv
	}
	r := sortRow{keys: s.lateKeys, seq: s.seq}
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
	if grew {
		r.keys = append([]value.Value(nil), s.lateKeys...)
	} else {
		r.keys = s.top.rows[0].keys
		copy(r.keys, s.lateKeys)
	}
	s.top.insert(r)
	if grew && s.gov != nil {
		return s.gov.ChargeOutput("order-by", 1, v)
	}
	return nil
}

// finish sorts (if ordered) and applies LIMIT/OFFSET, returning the
// block's result collection — or, for a PIVOT block, its one tuple.
func (s *rowSink) finish(limit, offset int64) value.Value {
	if s.q.Select.PivotAt != nil {
		t := value.EmptyTuple()
		for i, v := range s.out {
			t.Put(s.keys[i], v)
		}
		return t
	}
	out := s.out
	if s.ordered {
		var stopSort func()
		if s.stOrder != nil {
			stopSort = s.stOrder.Timer()
		}
		rows := s.rows
		if s.top != nil {
			rows = s.top.finish()
			if s.stOrder != nil {
				s.stOrder.Counter("heap_evictions").Store(s.top.evicted)
			}
		} else {
			sortRows(rows, s.q.OrderBy)
		}
		out = make([]value.Value, len(rows))
		for i, r := range rows {
			out[i] = r.val
		}
		if stopSort != nil {
			stopSort()
			s.stOrder.AddOut(int64(len(out)))
		}
	}
	if s.stLimit != nil {
		s.stLimit.AddIn(int64(len(out)))
	}
	out = applyLimitOffset(out, limit, offset)
	if s.stLimit != nil {
		s.stLimit.AddOut(int64(len(out)))
	}
	if s.ordered {
		return value.Array(out)
	}
	return value.Bag(out)
}

// havingChain wraps inner with the HAVING filter.
func havingChain(ctx *eval.Context, q *ast.SFW, ex *clauseExprs, inner emit) emit {
	if q.Having == nil {
		return inner
	}
	var st *eval.StatsNode
	if ctx.Stats != nil {
		st = ctx.Stats.Node(statsParent(ctx), q, "having", "filter", "having")
	}
	return func(env *eval.Env) error {
		if st != nil {
			st.AddIn(1)
		}
		cond, err := ex.having(ctx, env)
		if err != nil {
			return err
		}
		if !eval.IsTrue(cond) {
			return nil
		}
		if st != nil {
			st.AddOut(1)
		}
		return inner(env)
	}
}

// preGroupChain wraps consume with the block's clause-position WHERE
// conjuncts (all of WHERE without a plan, the optimizer's residual with
// one) and LET clauses, in pipeline order: LETs bind first, then WHERE
// filters.
func preGroupChain(ctx *eval.Context, q *ast.SFW, ex *clauseExprs, consume emit) emit {
	if len(ex.where) > 0 {
		inner := consume
		var st *eval.StatsNode
		if ctx.Stats != nil {
			label := "where"
			if q.Phys != nil {
				label = "residual"
			}
			st = ctx.Stats.Node(statsParent(ctx), q, "where", "filter", label)
		}
		consume = func(env *eval.Env) error {
			if st != nil {
				st.AddIn(1)
			}
			ok, err := filtersPass(ctx, env, ex.where)
			if err != nil || !ok {
				return err
			}
			if st != nil {
				st.AddOut(1)
			}
			return inner(env)
		}
	}
	if len(q.Lets) > 0 {
		inner := consume
		lets := q.Lets
		consume = func(env *eval.Env) error {
			for i, l := range lets {
				v, err := ex.lets[i](ctx, env)
				if err != nil {
					return err
				}
				env.Bind(l.Name, v)
			}
			return inner(env)
		}
	}
	return consume
}

// runSFW executes one query block.
func runSFW(ctx *eval.Context, outer *eval.Env, q *ast.SFW) (value.Value, error) {
	// Stamp the block position so a recovered panic can report where the
	// plan was; one field store, no restore — innermost wins.
	ctx.PlanPos = q.Pos()
	if q.Select.Value == nil {
		return nil, fmt.Errorf("plan: query block not in Core form (SELECT sugar not lowered) at %s", q.Pos())
	}

	ordered := len(q.OrderBy) > 0
	limit, offset, err := evalLimitOffset(ctx, outer, q)
	if err != nil {
		return nil, err
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
		var where []ast.Expr
		if q.Where != nil {
			where = []ast.Expr{q.Where}
		}
		interpreted := newClauseExprs(q, where, eval.Interpret)
		ex = &interpreted
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
		block = ctx.Stats.Node(statsParent(ctx), q, "block", op, q.Pos().String())
		buildBlockSkeleton(ctx, q, phys, limit, offset, block)
		saved := ctx.StatsParent
		ctx.StatsParent = block
		defer func() { ctx.StatsParent = saved }()
		defer block.Timer()()
	}

	if phys != nil && phys.parallel && ctx.Parallelism > 1 {
		if v, done, err := runSFWParallel(ctx, outer, q, phys); done {
			if block != nil && err == nil {
				block.SetOut(resultLen(v))
			}
			return v, err
		}
	}

	sink := newRowSink(ctx, q, ex, ordered, limit, offset)

	// Window functions force materialization of the post-group bindings:
	// each partition must be complete before any row's value is known.
	var windowEnvs []*eval.Env
	postHaving := sink.consumer()
	if len(q.Windows) > 0 {
		sink.stopAt = -1
		postHaving = func(env *eval.Env) error {
			if err := ctx.Interrupted(); err != nil {
				return err
			}
			windowEnvs = append(windowEnvs, env)
			if ctx.Gov != nil {
				if err := ctx.Gov.ChargeValues("window", 1, nil); err != nil {
					return err
				}
			}
			return checkSize(ctx, len(windowEnvs))
		}
	}

	// postGroup runs HAVING and then projection (or window collection)
	// for a group-output binding.
	postGroup := havingChain(ctx, q, ex, postHaving)

	// The consumer of FROM/WHERE bindings.
	var consume emit
	var grp grouper
	if q.GroupBy != nil {
		grp = newGrouper(ctx, outer, q.GroupBy, ex.group, phys)
		consume = grp.add
	} else {
		consume = postGroup
	}
	consume = preGroupChain(ctx, q, ex, consume)

	if phys != nil {
		err = newPhysState(ctx, phys, outer).produce(ctx, consume)
	} else {
		err = produceFrom(ctx, outer, q.From, consume)
	}
	if err != nil && err != errStop {
		return nil, err
	}

	if grp != nil {
		if err := grp.flush(postGroup); err != nil && err != errStop {
			return nil, err
		}
	}

	if len(q.Windows) > 0 {
		var stopWin func()
		if block != nil {
			wn := ctx.Stats.Node(block, q, "window", "window", "")
			wn.AddIn(int64(len(windowEnvs)))
			wn.AddOut(int64(len(windowEnvs)))
			stopWin = wn.Timer()
		}
		if err := computeWindows(ctx, q.Windows, windowEnvs); err != nil {
			return nil, err
		}
		if stopWin != nil {
			stopWin()
		}
		for _, wenv := range windowEnvs {
			if err := sink.project(wenv); err != nil {
				if err == errStop {
					break
				}
				return nil, err
			}
		}
	}

	res := sink.finish(limit, offset)
	if block != nil {
		block.SetOut(resultLen(res))
	}
	return res, nil
}

// evalLimitOffset evaluates LIMIT and OFFSET in the outer environment.
// limit is -1 when absent.
func evalLimitOffset(ctx *eval.Context, outer *eval.Env, q *ast.SFW) (limit, offset int64, err error) {
	limit = -1
	if q.Limit != nil {
		v, err := eval.Eval(ctx, outer, q.Limit)
		if err != nil {
			return 0, 0, err
		}
		n, ok := value.AsInt(v)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("plan: LIMIT must be a non-negative integer, got %s at %s", v, q.Limit.Pos())
		}
		limit = n
	}
	if q.Offset != nil {
		v, err := eval.Eval(ctx, outer, q.Offset)
		if err != nil {
			return 0, 0, err
		}
		n, ok := value.AsInt(v)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("plan: OFFSET must be a non-negative integer, got %s at %s", v, q.Offset.Pos())
		}
		offset = n
	}
	return limit, offset, nil
}

func applyLimitOffset(out []value.Value, limit, offset int64) []value.Value {
	if offset > 0 {
		if offset >= int64(len(out)) {
			return nil
		}
		out = out[offset:]
	}
	if limit >= 0 && limit < int64(len(out)) {
		out = out[:limit]
	}
	return out
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

// cmpRows orders two rows by the ORDER BY items using the SQL++ total
// order, honouring DESC and NULLS FIRST/LAST. In the total order the
// absent values sort lowest, which matches SQL's NULLS-FIRST-ascending
// when no modifier is given; an explicit modifier overrides.
func cmpRows(a, b sortRow, items []ast.OrderItem) int {
	for k, o := range items {
		av, bv := a.keys[k], b.keys[k]
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

// sortRows stably orders rows by the ORDER BY items.
func sortRows(rows []sortRow, items []ast.OrderItem) {
	sort.SliceStable(rows, func(i, j int) bool {
		return cmpRows(rows[i], rows[j], items) < 0
	})
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

func newTopKHeap(k int, items []ast.OrderItem) *topKHeap {
	return &topKHeap{k: k, items: items}
}

// before reports whether a precedes b in the final output order.
func (h *topKHeap) before(a, b sortRow) bool {
	c := cmpRows(a, b, h.items)
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

// offer folds one row in, keeping only the k output-first rows. A row
// tying the current worst is discarded: its arrival order places it
// after every row already kept.
func (h *topKHeap) offer(r sortRow) {
	if h.admits(r) {
		h.insert(r)
	}
}

// admits reports whether r belongs among the k rows kept so far.
func (h *topKHeap) admits(r sortRow) bool {
	return len(h.rows) < h.k || (h.k > 0 && h.before(r, h.rows[0]))
}

// insert adds an admitted row, evicting the root once the heap is full.
func (h *topKHeap) insert(r sortRow) {
	if len(h.rows) < h.k {
		heap.Push(h, r)
		return
	}
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
