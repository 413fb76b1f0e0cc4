package plan

import (
	"errors"
	"slices"
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// Streaming (hash-aggregate) GROUP BY. The paper defines SQL aggregates
// as COLL_* functions over the GROUP AS collection (§V-C): a conceptual
// materialization. When every reference a block makes to its group
// variable g is the argument of a fold —
//
//	COLL_COUNT(g)
//	COLL_X(SELECT VALUE arg FROM g AS v [WHERE cond])
//
// with arg and cond reaching v only as v.<block variable> — the group
// collection itself is never observable, only the folds are. Such a block
// is streamed: each fold becomes a slot whose accumulator
// (eval.Accumulator, the same one the COLL_* function folds over a
// collection) is stepped per input row with arg and cond un-substituted
// (v.e.salary → e.salary) against the pre-group environment, and the
// post-group clauses read the slot instead of calling the function. Any
// other use of g keeps the materializing groupState, which is what GROUP
// AS means.

// streamPlan is the streamed form of one block's GROUP BY.
type streamPlan struct {
	// post is a shallow copy of the block whose HAVING, SELECT VALUE (and
	// PIVOT name), ORDER BY and window expressions have every fold call
	// replaced by $AGG($agg<i>), a read of slot i. Execution of a streamed
	// block runs its post-group half from post.
	post  *ast.SFW
	slots []aggSlot
	// folded are the fold subqueries the slots replaced. They never run,
	// so the optimizer neither plans nor reports them.
	folded []*ast.SFW
	// label is the EXPLAIN form, e.g. "stream: COUNT,SUM".
	label string
}

// aggSlot is one distinct fold of a streamed block.
type aggSlot struct {
	name string // the hidden post-group binding, "$agg<i>"
	def  *eval.FuncDef
	// star marks COLL_COUNT(g): one step per row, no argument.
	star bool
	// retains marks ARRAY_AGG, the one aggregate whose state grows with
	// its input: each value it keeps is charged to the governor.
	retains bool
	// arg and cond (the WHERE, nil when absent) are the fold subquery's
	// expressions over the pre-group variables; argC/condC their compiled
	// forms. cond is evaluated whole, as the reference pipeline evaluates a
	// WHERE, so stop-on-error faults in it are the same faults.
	arg, cond   ast.Expr
	argC, condC eval.CompiledExpr
}

// streamRecognizer decides whether a block streams and builds its plan.
type streamRecognizer struct {
	g string
	// names are the names a fold argument must not mention free: the
	// post-group bindings (they do not exist before grouping; false) and
	// the block's FROM/LET variables (true; a free occurrence means an
	// outer variable the pre-group environment would shadow).
	names map[string]bool
	funcs eval.FuncSource
	// dedupe lets equal folds share a slot. Off under stop-on-error
	// typing, where the positions inside each occurrence's argument are
	// observable through error text.
	dedupe bool
	slots  []aggSlot
	folded []*ast.SFW
	// blocked is the first reference to g that needs the materialized
	// group; empty while the block is streamable.
	blocked string
}

// planStreamAgg returns the streamed plan of q's GROUP BY, or nil and the
// first reference that keeps the block materialized.
func planStreamAgg(q *ast.SFW, o OptOptions) (*streamPlan, string) {
	r := &streamRecognizer{
		g:      q.GroupBy.GroupAs,
		names:  map[string]bool{q.GroupBy.GroupAs: false},
		funcs:  o.Funcs,
		dedupe: o.Mode == eval.Permissive,
	}
	for i, key := range q.GroupBy.Keys {
		r.names[ast.KeyAlias(key, i)] = false
	}
	for _, w := range q.Windows {
		r.names[w.Name] = false
	}
	for _, item := range q.From {
		for _, v := range ast.ItemVars(item) {
			r.names[v] = true
		}
	}
	for _, l := range q.Lets {
		r.names[l.Name] = true
	}

	// Slots are numbered in evaluation order (HAVING, windows, a PIVOT's
	// name, SELECT, ORDER BY), so a shared slot's argument carries the positions of the
	// occurrence evaluated first.
	post := *q
	post.Having = r.rewrite(q.Having)
	post.Windows = make([]ast.NamedWindow, len(q.Windows))
	for i, w := range q.Windows {
		fn := *w.Fn
		fn.Args = make([]ast.Expr, len(w.Fn.Args))
		for j, a := range w.Fn.Args {
			fn.Args[j] = r.rewrite(a)
		}
		w.Fn = &fn
		part := make([]ast.Expr, len(w.Spec.PartitionBy))
		for j, p := range w.Spec.PartitionBy {
			part[j] = r.rewrite(p)
		}
		w.Spec = ast.WindowSpec{PartitionBy: part, OrderBy: r.rewriteOrder(w.Spec.OrderBy)}
		post.Windows[i] = w
	}
	post.Select.PivotAt = r.rewrite(q.Select.PivotAt)
	post.Select.Value = r.rewrite(q.Select.Value)
	post.OrderBy = r.rewriteOrder(q.OrderBy)
	if r.blocked != "" {
		return nil, r.blocked
	}
	names := make([]string, len(r.slots))
	for i, s := range r.slots {
		names[i] = strings.TrimPrefix(s.def.Name, "COLL_")
	}
	label := "stream"
	if len(names) > 0 {
		label = "stream: " + strings.Join(names, ",")
	}
	return &streamPlan{post: &post, slots: r.slots, folded: r.folded, label: label}, ""
}

func (r *streamRecognizer) block(ref string) {
	if r.blocked == "" {
		r.blocked = ref
	}
}

// rewrite copies a post-group expression with its folds replaced by slot
// reads, recording any other reference to g as blocking.
func (r *streamRecognizer) rewrite(e ast.Expr) ast.Expr {
	return ast.CloneReplace(e, r.replacePost)
}

func (r *streamRecognizer) rewriteOrder(items []ast.OrderItem) []ast.OrderItem {
	out := make([]ast.OrderItem, len(items))
	for i, ob := range items {
		ob.Expr = r.rewrite(ob.Expr)
		out[i] = ob
	}
	return out
}

func (r *streamRecognizer) replacePost(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.VarRef:
		if x.Name == r.g {
			r.block(r.g)
		}
	case *ast.Call:
		if read := r.fold(x); read != nil {
			return read
		}
		for _, a := range x.Args {
			if v, ok := a.(*ast.VarRef); ok && v.Name == r.g {
				r.block(x.Name + "(" + r.g + ")")
			}
		}
	case *ast.SFW, *ast.SetOp, *ast.With:
		// Nested blocks stay shared with the original tree (they carry
		// their own physical plans); one that sees g needs the collection.
		if ast.FreeVars(x)[r.g] {
			r.block("subquery over " + r.g)
		}
		return x
	}
	return nil
}

// fold matches a fold-shaped aggregate call over g and returns the slot
// read that replaces it, or nil when call is anything else.
func (r *streamRecognizer) fold(call *ast.Call) ast.Expr {
	if r.funcs == nil || len(call.Args) != 1 {
		return nil
	}
	def, ok := r.funcs.LookupFunc(call.Name)
	if !ok || def.NewAcc == nil {
		return nil
	}
	slot := aggSlot{def: def, retains: def.Name == "COLL_ARRAY_AGG"}
	switch a := call.Args[0].(type) {
	case *ast.VarRef:
		if a.Name != r.g || def.Name != "COLL_COUNT" {
			return nil
		}
		slot.star = true
	case *ast.SFW:
		if !r.foldBody(a, &slot) {
			return nil
		}
		r.folded = append(r.folded, a)
	default:
		return nil
	}
	// An equal fold (the same function over Equal argument and condition)
	// shares its slot when dedupe is on.
	i := slices.IndexFunc(r.slots, func(s aggSlot) bool {
		return r.dedupe && s.def.Name == def.Name && s.star == slot.star && ast.Equal(s.arg, slot.arg) && ast.Equal(s.cond, slot.cond)
	})
	if i < 0 {
		i = len(r.slots)
		slot.name = "$agg" + strconv.Itoa(i)
		r.slots = append(r.slots, slot)
	}
	ref := &ast.VarRef{Name: r.slots[i].name}
	ref.SetPos(call.Pos())
	read := &ast.Call{Name: "$AGG", Args: []ast.Expr{ref}}
	read.SetPos(call.Pos())
	return read
}

// foldBody matches `SELECT VALUE arg FROM g AS v [WHERE cond]` and fills
// slot.arg/slot.cond with the expressions un-substituted onto the
// pre-group variables.
func (r *streamRecognizer) foldBody(b *ast.SFW, slot *aggSlot) bool {
	if b.Select.Value == nil || b.Select.PivotAt != nil || b.Select.Distinct || len(b.From) != 1 || len(b.Lets) > 0 ||
		b.GroupBy != nil || b.Having != nil || len(b.OrderBy) > 0 || b.Limit != nil || b.Offset != nil || len(b.Windows) > 0 {
		return false
	}
	from, ok := b.From[0].(*ast.FromExpr)
	if !ok || from.AtVar != "" {
		return false
	}
	if src, ok := from.Expr.(*ast.VarRef); !ok || src.Name != r.g {
		return false
	}
	arg, ok := r.unsubstitute(b.Select.Value, from.As)
	if !ok {
		return false
	}
	slot.arg = arg
	if b.Where != nil {
		if slot.cond, ok = r.unsubstitute(b.Where, from.As); !ok {
			return false
		}
	}
	return true
}

// unsubstitute rewrites v.<block variable> to <block variable>. It fails
// when e reaches v any other way (the element tuple itself, an attribute
// that is no block variable, inside a nested block) or mentions a
// captured name.
func (r *streamRecognizer) unsubstitute(e ast.Expr, v string) (ast.Expr, bool) {
	for name := range ast.FreeVars(e) {
		if _, captured := r.names[name]; captured && name != v {
			return nil, false
		}
	}
	ok := true
	out := ast.CloneReplace(e, func(n ast.Expr) ast.Expr {
		switch x := n.(type) {
		case *ast.FieldAccess:
			if base, isVar := x.Base.(*ast.VarRef); isVar && base.Name == v && r.names[x.Name] {
				ref := &ast.VarRef{Name: x.Name}
				ref.SetPos(x.Pos())
				return ref
			}
		case *ast.VarRef:
			if x.Name == v {
				ok = false
			}
		case *ast.SFW, *ast.SetOp, *ast.With:
			if ast.FreeVars(x)[v] {
				ok = false
			}
			return x
		}
		return nil
	})
	return out, ok
}

// streamGroup is the streaming GROUP BY operator. A group is an ordinal,
// numbered in first-appearance order, into flat arrays: group o's key
// values are keys[o*nk:(o+1)*nk] and its accumulators, one per slot,
// accs[o*ns:(o+1)*ns], for nk grouping keys and ns slots. Its key
// encoding is ordinal o of table. That, and each accumulator's own
// state, is all a group retains.
type streamGroup struct {
	ctx   *eval.Context
	outer *eval.Env
	slots []aggSlot
	keysC []eval.CompiledExpr
	// names are the output bindings of a group: the key aliases, then the
	// slots' hidden names.
	names []string
	// reuse binds every group's output into one frame, rebound in place
	// (phys.reuseEnv: no window keeps a group's environment).
	reuse bool
	frame *eval.Env
	n     int // groups
	table keyTable
	keys  []value.Value
	accs  []eval.Accumulator
	// errs[o*ns+i] is the first error evaluating slot i's cond or arg in
	// group o; the subquery the slot replaces would have stopped there, so
	// the slot stops folding and its reads raise the error. It covers the
	// groups up to the last that failed, and is empty until a slot fails.
	errs []error
	// keyBuf and keyVals are reused across rows: a row allocates only
	// when it opens a new group.
	keyBuf  []byte
	keyVals []value.Value
	// ops counts the rows folded and the groups flushed.
	ops eval.Rows
}

// newStreamGroup builds the operator of a block whose plan phys streams
// its GROUP BY; keys evaluate the grouping keys.
//
// governor:bounded by the query's grouping keys and slots.
func newStreamGroup(ctx *eval.Context, spec *ast.GroupBy, keys []eval.CompiledExpr, phys *sfwPhys) *streamGroup {
	plan := phys.stream
	g := &streamGroup{
		ctx:     ctx,
		slots:   plan.slots,
		keysC:   keys,
		names:   make([]string, 0, len(spec.Keys)+len(plan.slots)),
		reuse:   phys.reuseEnv,
		keyVals: make([]value.Value, len(spec.Keys)),
	}
	for i, key := range spec.Keys {
		g.names = append(g.names, ast.KeyAlias(key, i))
	}
	for _, s := range plan.slots {
		g.names = append(g.names, s.name)
	}
	return g
}

func (g *streamGroup) counts() *eval.Rows { return &g.ops }

func (g *streamGroup) groups() int { return g.n }

// reset drops the groups of the last invocation, keeping the arrays.
func (g *streamGroup) reset(outer *eval.Env) {
	g.outer = outer
	g.n = 0
	g.table.reset()
	clear(g.keys)
	clear(g.accs)
	clear(g.errs)
	g.keys, g.accs, g.errs = g.keys[:0], g.accs[:0], g.errs[:0]
	// The implicit single group of aggregate-only queries exists even
	// for empty input (SELECT AVG(x) over nothing yields one NULL row).
	if len(g.keysC) == 0 {
		g.open(nil, nil)
	}
}

// open appends a group with the given key values and accumulators, or
// fresh ones when accs is nil: ordinal g.n, as the table numbered it.
//
// governor:charged-at streamGroup.add — once per group; the loop is
// bounded by the slot count.
func (g *streamGroup) open(keys []value.Value, accs []eval.Accumulator) {
	g.keys = appendDoubling(g.keys, keys...)
	if accs != nil {
		g.accs = appendDoubling(g.accs, accs...)
	} else {
		g.accs = growDoubling(g.accs, len(g.slots))
		for i := range g.slots {
			g.accs = append(g.accs, g.slots[i].def.NewAcc())
		}
	}
	g.n++
}

// growDoubling makes room for n more elements in s, at least doubling
// its capacity when it must grow. The group arrays grow from empty (most
// executions hold a handful of groups) to whatever the input needs;
// append's growth of 1.25 past 256 elements would allocate about 3.6
// times the final size on the way to 2,000 elements, doubling about 2.
func growDoubling[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// appendDoubling appends vs to s, growing s by growDoubling.
func appendDoubling[T any](s []T, vs ...T) []T {
	return append(growDoubling(s, len(vs)), vs...)
}

func (g *streamGroup) keysOf(o int) []value.Value {
	nk := len(g.keysC)
	return g.keys[o*nk : (o+1)*nk]
}

// add folds one binding environment into its group's accumulators.
func (g *streamGroup) add(env *eval.Env) error {
	if err := g.ctx.Interrupted(); err != nil {
		return err
	}
	g.ops.In++
	o := 0 // the implicit group, without keys
	if len(g.keysC) > 0 {
		kb, err := groupKey(g.ctx, env, g.keysC, g.keyVals, g.keyBuf)
		if err != nil {
			return err
		}
		g.keyBuf = kb
		var isNew bool
		if o, isNew = g.table.intern(kb); isNew {
			g.open(g.keyVals, nil)
			// A group retains its keys and accumulators, whatever the
			// number of rows folded into it: charged once, here.
			if g.ctx.Gov != nil {
				if err := g.ctx.Gov.ChargeBindings("group-by", g.keysOf(o)); err != nil {
					return err
				}
			}
		} else if g.ctx.Compat {
			mergeCompatKeys(g.keysOf(o), g.keyVals)
		}
	}
	for i := range g.slots {
		if g.failed(o, i) != nil {
			continue
		}
		if err := g.step(o, i, env); err != nil {
			return err
		}
	}
	return nil
}

// step folds the row into slot i of group o. A failure evaluating the
// slot's cond or arg is latched, not raised: it belongs to the slot's
// first reader. The returned error is the operator's own (a spent
// budget) and ends the query.
func (g *streamGroup) step(o, i int, env *eval.Env) error {
	s, acc := &g.slots[i], g.accs[o*len(g.slots)+i]
	if s.star {
		acc.Step(value.True)
		return nil
	}
	if s.cond != nil {
		c, err := s.condC(g.ctx, env)
		if err != nil {
			return g.latch(o, i, err)
		}
		if !eval.IsTrue(c) {
			return nil
		}
	}
	v, err := s.argC(g.ctx, env)
	if err != nil {
		return g.latch(o, i, err)
	}
	if v.Kind() == value.KindMissing {
		return nil // SELECT VALUE drops MISSING from the bag the fold ranged over
	}
	acc.Step(v)
	if s.retains && g.ctx.Gov != nil {
		return g.ctx.Gov.ChargeValues("group-by", 1, v)
	}
	return nil
}

// failed returns slot i's latched fault in group o, or nil.
func (g *streamGroup) failed(o, i int) error {
	if j := o*len(g.slots) + i; j < len(g.errs) {
		return g.errs[j]
	}
	return nil
}

// latch records err as slot i's fault in group o. A spent budget is
// nobody's fault to defer: it is returned and ends the query.
func (g *streamGroup) latch(o, i int, err error) error {
	var re *eval.ResourceError
	if errors.As(err, &re) {
		return err
	}
	if need := (o + 1) * len(g.slots); len(g.errs) < need {
		g.errs = append(g.errs, make([]error, need-len(g.errs))...)
	}
	g.errs[o*len(g.slots)+i] = err
	return nil
}

// flush emits one binding per group in first-appearance order: the key
// aliases plus one hidden binding per slot holding the aggregate's value
// or, deferred to its first reader, its fault. Under reuse every group is
// bound into the same frame, so a group allocates only what its
// accumulators' results do.
func (g *streamGroup) flush(k emit) error {
	nk := len(g.keysC)
	for o := range g.n {
		g.ops.Out++
		env := g.frameFor()
		for i, v := range g.keysOf(o) {
			env.Bind(g.names[i], v)
		}
		for i := range g.slots {
			err := g.failed(o, i)
			var v value.Value
			if err == nil {
				v, err = g.accs[o*len(g.slots)+i].Result()
			}
			if err != nil {
				v = eval.AggFault{Err: err}
			}
			env.Bind(g.names[nk+i], v)
		}
		if err := k(env); err != nil {
			return err
		}
	}
	return nil
}

// frameFor returns the environment the next group binds into: the reused
// frame, moved under this invocation's outer environment, or a new one.
func (g *streamGroup) frameFor() *eval.Env {
	if !g.reuse {
		return g.outer.Child()
	}
	return reframe(&g.frame, g.outer)
}

// merge folds a later chunk's partial groups into g: the worker's new
// groups append in its appearance order, its ordinals mapped to g's
// through g's table, and shared groups merge accumulators. Every
// accumulator's Merge is exact, so the result is the sequential fold's
// whatever the chunking. A g with no groups yet takes over the worker's
// arrays.
//
// governor:charged-at streamGroup.add — each worker charged the groups
// it opened.
func (g *streamGroup) merge(other grouper) {
	w := other.(*streamGroup)
	if g.n == 0 {
		g.n, g.table, g.keys, g.accs, g.errs = w.n, w.table, w.keys, w.accs, w.errs
		return
	}
	ns := len(g.slots)
	for wo := range w.n {
		o, isNew := 0, false
		if len(g.keysC) > 0 {
			o, isNew = g.table.intern(w.table.key(wo))
		}
		if isNew {
			g.open(w.keysOf(wo), w.accs[wo*ns:(wo+1)*ns])
		} else if g.ctx.Compat {
			mergeCompatKeys(g.keysOf(o), w.keysOf(wo))
		}
		for i := range g.slots {
			switch werr := w.failed(wo, i); {
			case werr != nil:
				if g.failed(o, i) == nil {
					_ = g.latch(o, i, werr) // latched errors are never a budget's
				}
			case isNew || g.failed(o, i) != nil:
			default:
				g.accs[o*ns+i].Merge(w.accs[wo*ns+i])
			}
		}
	}
}
