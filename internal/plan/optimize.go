package plan

import (
	"fmt"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
)

// The physical optimization pass. Optimize annotates every query block in
// a rewritten Core tree with an execution strategy that produces the same
// bindings as the naive clause pipeline but cheaper:
//
//   - source hoisting: a FROM item whose source expression has no free
//     variables bound by items to its left is evaluated once per block
//     invocation instead of once per left binding (lazily, so a source
//     that the naive plan would never evaluate is still never evaluated);
//   - hash equi-joins: JOIN ... ON conditions and comma cross products
//     whose pushed WHERE conjuncts contain lhs = rhs terms splitting
//     cleanly across the two sides build a hash table on the uncorrelated
//     side, keyed by value.AppendKey, and probe it instead of looping.
//     Buckets are only candidate prefilters — every candidate is verified
//     with the original predicate, so the equality semantics (numeric
//     coercion, NULL, MISSING, collections) stay bit-identical;
//   - predicate pushdown: WHERE splits into AND-conjuncts, each applied
//     at the earliest point in the FROM chain where its free variables
//     are bound;
//   - parallel outer scans: unordered blocks without LIMIT/OFFSET or
//     window functions mark the outermost scan as partitionable across a
//     worker pool (see parallel.go).
//
// Pushdown and hash joins change which rows a predicate is evaluated on
// (a conjunct may run before its AND-siblings, and non-candidate pairs
// skip the ON condition entirely). In permissive mode that is invisible —
// a mistyped conjunct yields MISSING and just fails the filter — but in
// stop-on-error mode it could change which error surfaces, so those
// rewrites only fire in permissive mode. Hoisting and parallel scans
// preserve the evaluation set exactly and stay enabled in both modes.

// OptOptions configures the optimization pass.
type OptOptions struct {
	// Mode is the engine's typing mode; equality-based rewrites
	// (pushdown, hash joins, index access paths) require Permissive.
	Mode eval.TypingMode
	// Indexes resolves secondary-index availability at plan time; nil
	// disables access-path selection.
	Indexes IndexSource
	// Compat is the engine's SQL-compatibility bit; compiled expressions
	// specialize on it, so it must match the execution Context.
	Compat bool
	// Deprecated: ignored — plans are always compiled; kept only until
	// the next benchmark PR drops the reference.
	Compile bool
	// Funcs resolves function names at compile time; nil leaves calls on
	// the interpreter.
	Funcs eval.FuncSource
	// Stats resolves per-collection statistics at plan time. A collection
	// without a profile (and every collection, when Stats is nil) takes the
	// default priors: no join reordering, index veto, parallel sizing or
	// est_rows annotation is based on it.
	Stats StatsSource
	// Parallelism is the executor's worker budget, used only to size
	// parallel-scan chunks from estimated row counts.
	Parallelism int
}

// IndexSource answers plan-time access-path questions; the catalog
// implements it. needOrdered asks for range-probe capability.
type IndexSource interface {
	IndexFor(collection string, path []string, needOrdered bool) (name string, ok bool)
}

// indexAccess records an access-path choice: probe the named index
// instead of scanning its collection. The matched conjuncts always stay
// in the step's filters (or the join's verify set) — index positions
// are candidate prefilters in original scan order, and every candidate
// is re-verified, so indexed execution is bit-identical to scanning.
// If the index is gone (or changed shape) by execution time, the
// runtime falls back to that ordinary scan.
type indexAccess struct {
	name       string
	collection string
	path       []string
	// ordered requires a range-capable index at runtime.
	ordered bool
	// eq, when non-nil, is the equality probe key, evaluated in the
	// environment incoming to the step (so a correlated key turns the
	// step into an index nested-loop join). When nil, the access is a
	// range probe over lo/hi, of which at least one is set.
	eq             ast.Expr
	lo, hi         ast.Expr
	loIncl, hiIncl bool
	// estRows is the estimated probe result cardinality (-1 unknown),
	// surfaced as est_rows on the EXPLAIN node.
	estRows int64
	// Compiled forms of eq/lo/hi, nil like them.
	eqC, loC, hiC eval.CompiledExpr
}

// sfwPhys is the physical plan of one query block, stored in ast.SFW.Phys.
type sfwPhys struct {
	// pre are WHERE conjuncts with no free block variables: evaluated
	// once before any binding is produced; a non-TRUE value empties the
	// block.
	pre []ast.Expr
	// steps mirror q.From; step i produces item i's bindings and applies
	// its pushed conjuncts.
	steps []fromStep
	// residual are WHERE conjuncts that must run in clause position
	// (they reference LET or window names, or pushdown is disabled).
	residual []ast.Expr
	// parallel marks the outermost scan as eligible for partitioned
	// execution.
	parallel bool
	// reuseEnv permits the fused scan loop to reuse one child Env across
	// the rows of a scan, rebinding in place. Safe only when nothing
	// downstream of the pipeline retains row environments; window
	// functions retain them (plan.go windowEnvs), and so does the
	// reorder buffer below.
	reuseEnv bool
	// reorder, when non-nil, runs the steps in a cost-chosen order and
	// buffers bindings so they are consumed in written production order
	// (see reorder.go); set only when every step is an uncorrelated named
	// scan with statistics.
	reorder *reorderExec
	// scanEst is the estimated row count of the outermost scan (-1
	// unknown); chunkHint is the parallel chunk size derived from it (0
	// means use the runtime default).
	scanEst   int64
	chunkHint int
	// stream, when non-nil, runs the block's GROUP BY as a streaming hash
	// aggregate and its post-group clauses from stream.post (see
	// streamagg.go); nil keeps the materializing groupState.
	stream *streamPlan
	// preC is the compiled form of pre; clauseExprs those of the clause
	// expressions (its where is residual's), lowered from stream.post when
	// the block streams.
	preC []eval.CompiledExpr
	clauseExprs
}

// fromStep is the physical form of one top-level FROM item.
type fromStep struct {
	// item is the FROM item to produce; nil when hash is a probe-only
	// step (comma-derived hash join: the incoming environment probes).
	item ast.FromItem
	// filters are pushed WHERE conjuncts applied to each binding this
	// step emits.
	filters []ast.Expr
	// hoist marks a FromExpr/FromUnpivot source as uncorrelated: its
	// source expression is evaluated once per block invocation.
	hoist bool
	// hash, when non-nil, replaces the nested-loop production of this
	// item with a hash-table probe.
	hash *hashJoinStep
	// idx, when non-nil, replaces the scan of this item's named
	// collection with a secondary-index probe (filters still verify).
	idx *indexAccess
	// estSrc/estOut are the estimated source and post-filter row counts
	// of this step (-1 unknown), surfaced as est_rows on EXPLAIN nodes.
	estSrc, estOut int64
	// Compiled forms of filters and of the item's source expression
	// (FromExpr/FromUnpivot only).
	filtersC []eval.CompiledExpr
	srcC     eval.CompiledExpr
}

// hashJoinStep describes one hash equi-join.
type hashJoinStep struct {
	// left, when non-nil, is the probe-side FROM item (a JOIN's left
	// subtree); nil means the incoming environment itself probes (comma
	// cross product).
	left ast.FromItem
	// right is the uncorrelated build side.
	right *ast.FromExpr
	// probeKeys/buildKeys are the paired sides of the equi-conjuncts:
	// probeKeys evaluate without right's variables, buildKeys without
	// any earlier block variable.
	probeKeys, buildKeys []ast.Expr
	// verify is evaluated per bucket candidate; all must be TRUE. For a
	// JOIN it is the full ON condition; for a comma product, the
	// equi-conjuncts themselves.
	verify []ast.Expr
	// leftJoin enables the LEFT JOIN null-padding path over padVars.
	leftJoin bool
	padVars  []string
	// buildIdx, when non-nil, replaces the build-side hash table with an
	// existing secondary index on the build key (buildIdx.eq holds the
	// paired probe key); verify and padding semantics are unchanged.
	buildIdx *indexAccess
	// estBuild/estOut are the estimated build-side and join-output row
	// counts (-1 unknown), surfaced as est_rows on EXPLAIN nodes.
	estBuild, estOut int64
	// Compiled forms of probeKeys/buildKeys/verify.
	probeC, buildC, verifyC []eval.CompiledExpr
}

// Optimize annotates every query block under root with a physical plan
// and returns human-readable notes describing the rewrites that fired.
// It must run after rewrite (it relies on catalog names being resolved to
// NamedRef) and before the tree is shared across goroutines: annotations
// are written once here and only read during execution.
func Optimize(root ast.Expr, o OptOptions) []string {
	var notes []string
	// folded are the fold subqueries of streamed GROUP BY blocks: replaced
	// by aggregate slots, they never run and get no plan. (Blocks nested
	// inside their arguments are shared with the slots and do.)
	var folded map[*ast.SFW]bool
	ast.Inspect(root, func(e ast.Expr) bool {
		q, ok := e.(*ast.SFW)
		if !ok || folded[q] {
			return true
		}
		phys, ns := analyzeSFW(q, o)
		q.Phys = phys
		notes = append(notes, ns...)
		if phys != nil && phys.stream != nil && len(phys.stream.folded) > 0 {
			if folded == nil {
				folded = map[*ast.SFW]bool{}
			}
			for _, f := range phys.stream.folded {
				folded[f] = true
			}
		}
		return true
	})
	return notes
}

// analyzeSFW computes the physical plan of one block. Every Core block
// gets one, FROM-less and PIVOT blocks included: a FROM-less plan has no
// steps, and its chain feeds one empty binding to the clauses.
func analyzeSFW(q *ast.SFW, o OptOptions) (*sfwPhys, []string) {
	if q.Select.Value == nil {
		return nil, nil
	}
	permissive := o.Mode == eval.Permissive
	n := len(q.From)

	// Variable sets: per top-level item, and the names WHERE conjuncts
	// may not be pushed past (LET and window bindings happen after FROM).
	itemV := make([]map[string]bool, n)
	for i, item := range q.From {
		itemV[i] = nameSet(ast.ItemVars(item))
	}
	late := map[string]bool{}
	for _, l := range q.Lets {
		late[l.Name] = true
	}
	for _, w := range q.Windows {
		late[w.Name] = true
	}

	phys := &sfwPhys{steps: make([]fromStep, n), scanEst: -1}
	for i := range phys.steps {
		phys.steps[i] = fromStep{item: q.From[i], estSrc: -1, estOut: -1}
	}

	// The conjunct pool pushdown draws from: the WHERE conjuncts, plus —
	// when reordering flattens JOIN chains below — their ON conjuncts.
	var pool []ast.Expr
	if permissive && q.Where != nil {
		pool = conjuncts(q.Where)
	}

	// Cost-based join reordering: when statistics cover every leaf of the
	// FROM chain and the written order is estimated to be expensive, run
	// the steps smallest-estimated-intermediate-first. The runtime
	// buffers bindings and restores written production order
	// (reorder.go), and every predicate stays a verify filter, so
	// results are byte-identical to the written plan.
	var reorderNotes []string
	if permissive && o.Stats != nil {
		if ro := planJoinOrder(q, o, pool, late); ro != nil {
			n = len(ro.items)
			phys.steps = make([]fromStep, n)
			itemV = make([]map[string]bool, n)
			for i, item := range ro.items {
				phys.steps[i] = fromStep{item: item, estSrc: -1, estOut: -1}
				itemV[i] = nameSet(ast.ItemVars(item))
			}
			phys.reorder = ro.exec
			pool = append(pool, ro.on...)
			reorderNotes = ro.notes
		}
	}

	// Predicate pushdown: each conjunct runs right after the last item
	// binding one of its free variables.
	pushed := 0
	if permissive {
		for _, c := range pool {
			fv := ast.FreeVars(c)
			if intersects(fv, late) {
				phys.residual = append(phys.residual, c)
				continue
			}
			level := -1
			for i := range itemV {
				if intersects(fv, itemV[i]) {
					level = i
				}
			}
			if level < 0 {
				phys.pre = append(phys.pre, c)
				pushed++
			} else {
				phys.steps[level].filters = append(phys.steps[level].filters, c)
				if level < n-1 {
					pushed++
				}
			}
		}
	} else if q.Where != nil {
		phys.residual = conjuncts(q.Where)
	}

	// Source hoisting: item i's source is uncorrelated when it has no
	// free variable bound by items 0..i-1. The outermost item is
	// evaluated once regardless.
	earlier := map[string]bool{}
	hoisted := 0
	for i := range phys.steps {
		switch x := phys.steps[i].item.(type) {
		case *ast.FromExpr:
			if i > 0 && !ast.FreeVarsOver(x.Expr, earlier) {
				phys.steps[i].hoist = true
				hoisted++
			}
		case *ast.FromUnpivot:
			if i > 0 && !ast.FreeVarsOver(x.Expr, earlier) {
				phys.steps[i].hoist = true
				hoisted++
			}
		}
		for v := range itemV[i] {
			earlier[v] = true
		}
	}

	// Access-path selection: a FROM item scanning a named collection
	// whose pushed conjuncts include an equality or range over an
	// indexed key path probes the index instead. The conjuncts stay in
	// the step's filters, so every index candidate is re-verified and
	// the rewrite is a pure prefilter. Like pushdown, it only fires in
	// permissive mode (a probe key that would fault under stop-on-error
	// could otherwise be evaluated when the naive plan never reaches it).
	var idxNotes []string
	if permissive && o.Indexes != nil {
		for i := range phys.steps {
			step := &phys.steps[i]
			x, ok := step.item.(*ast.FromExpr)
			if !ok || len(step.filters) == 0 {
				continue
			}
			ref, ok := x.Expr.(*ast.NamedRef)
			if !ok {
				continue
			}
			if ia := chooseIndexAccess(o.Indexes, ref.Name, x, step.filters, itemV[i]); ia != nil {
				// Index-vs-scan by estimated selectivity: on a large
				// collection an access expected to return a big fraction
				// of the rows loses to the scan's locality and is vetoed
				// (the pushed filters it matched still apply).
				if keep, est, rows := indexWorthIt(o.Stats, ref.Name, ia); !keep {
					idxNotes = append(idxNotes, fmt.Sprintf("index-skip(%s est=%d/%d)", ia.name, est, rows))
					continue
				}
				step.idx = ia
				if ia.eq != nil {
					idxNotes = append(idxNotes, fmt.Sprintf("index-eq(%s)", ia.name))
				} else {
					idxNotes = append(idxNotes, fmt.Sprintf("index-range(%s)", ia.name))
				}
			}
		}
	}

	// Hash equi-joins.
	hashed := 0
	if permissive {
		earlier = map[string]bool{}
		for i := range phys.steps {
			step := &phys.steps[i]
			switch x := step.item.(type) {
			case *ast.FromJoin:
				if h := analyzeJoinHash(x, earlier); h != nil {
					step.hash = h
					hashed++
					// An index on a build key replaces the hash table: the
					// probe key hits the prebuilt index, skipping the build.
					if o.Indexes != nil {
						if ia := chooseJoinIndex(o.Indexes, h); ia != nil {
							h.buildIdx = ia
							idxNotes = append(idxNotes, fmt.Sprintf("index-join(%s)", ia.name))
						}
					}
				}
			case *ast.FromExpr:
				// Comma-derived: the uncorrelated right side pairs with
				// the bindings accumulated so far via pushed equi-conjuncts.
				// An index access path already covers the step (and beats
				// a hash table: no build at all).
				if step.idx != nil || !step.hoist || len(step.filters) == 0 {
					break
				}
				if h := analyzeCommaHash(x, step, itemV[i], earlier); h != nil {
					step.hash = h
					step.item = nil
					hashed++
				}
			}
			for v := range itemV[i] {
				earlier[v] = true
			}
		}
	}

	// Parallel outer scan: bag output, no LIMIT/OFFSET (their early-stop
	// and slicing need global order), no window functions, and a plain
	// scan as the outermost item. GROUP BY, DISTINCT, and HAVING all
	// merge deterministically (see parallel.go). Reordered chains buffer
	// and re-sort bindings, which assumes straight-line production.
	if n > 0 && len(q.OrderBy) == 0 && q.Limit == nil && q.Offset == nil && len(q.Windows) == 0 && phys.reorder == nil {
		if _, ok := phys.steps[0].item.(*ast.FromExpr); ok && phys.steps[0].hash == nil && phys.steps[0].idx == nil {
			phys.parallel = true
		}
	}

	// Row estimates for EXPLAIN ANALYZE (est_rows vs actuals) and for the
	// parallel sizing below.
	annotateEstimates(q, phys, o, itemV)
	var estNotes []string
	for i := range phys.steps {
		if h := phys.steps[i].hash; h != nil && h.estBuild >= 0 {
			estNotes = append(estNotes, fmt.Sprintf("build-side(%s est=%d)", h.right.As, h.estBuild))
		}
		if ia := phys.steps[i].idx; ia != nil && ia.estRows >= 0 {
			estNotes = append(estNotes, fmt.Sprintf("index-est(%s rows=%d)", ia.name, ia.estRows))
		}
	}

	// Parallel sizing from row counts: a scan estimated under the
	// partitioning threshold skips the worker pool (its setup would
	// dominate); larger scans get a chunk size dividing the estimate
	// across the worker budget.
	parallelNote := ""
	if phys.parallel {
		parallelNote = "parallel-scan"
		if phys.scanEst >= 0 {
			if phys.scanEst < int64(parallelMinRows) {
				phys.parallel = false
				parallelNote = fmt.Sprintf("parallel-skip(est=%d)", phys.scanEst)
			} else {
				workers := o.Parallelism
				if workers < 1 {
					workers = 1
				}
				chunk := int(phys.scanEst) / workers
				if chunk < parallelMinChunk {
					chunk = parallelMinChunk
				}
				phys.chunkHint = chunk
				parallelNote = fmt.Sprintf("parallel-scan(est=%d chunk=%d)", phys.scanEst, chunk)
			}
		}
	}

	// GROUP BY form: stream the aggregates when the group collection is
	// only ever folded, materialize it when anything else looks at it.
	groupNote := ""
	if q.GroupBy != nil {
		var blocked string
		if phys.stream, blocked = planStreamAgg(q, o); phys.stream != nil {
			phys.stream.post.Phys = phys
			groupNote = fmt.Sprintf("stream-agg(%d)", len(phys.stream.slots))
		} else {
			groupNote = fmt.Sprintf("group-materialize(%s)", blocked)
		}
	}

	compileSFW(q, phys, eval.CompileOpts{Mode: o.Mode, Compat: o.Compat, Funcs: o.Funcs})

	var notes []string
	pos := q.Pos()
	add := func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf("%s at %v", fmt.Sprintf(format, args...), pos))
	}
	if pushed > 0 {
		add("pushdown(%d)", pushed)
	}
	if hoisted > 0 {
		add("hoist(%d)", hoisted)
	}
	if hashed > 0 {
		add("hash-join(%d)", hashed)
	}
	for _, n := range idxNotes {
		add("%s", n)
	}
	for _, n := range reorderNotes {
		add("%s", n)
	}
	for _, n := range estNotes {
		add("%s", n)
	}
	if parallelNote != "" {
		add("%s", parallelNote)
	}
	if groupNote != "" {
		add("%s", groupNote)
	}
	add("compiled")
	return phys, notes
}

// compileSFW lowers every expression the physical pipeline evaluates per
// row — source expressions, pushed and residual filters, join and index
// keys, LET sources, HAVING, GROUP BY keys, the SELECT projection, and
// ORDER BY keys — to eval closures, once, at plan time. The compiled
// forms ride in the physical plan next to the AST they were lowered
// from, and are what execution runs.
func compileSFW(q *ast.SFW, phys *sfwPhys, co eval.CompileOpts) {
	compile := func(e ast.Expr) eval.CompiledExpr { return eval.Compile(e, co) }
	if phys.stream != nil {
		// The post-group clauses compile from their slot-reading forms, the
		// folds' arguments against the pre-group variables.
		q = phys.stream.post
		for i := range phys.stream.slots {
			s := &phys.stream.slots[i]
			s.argC = compile(s.arg)
			s.condC = compile(s.cond)
		}
	}
	// The fused scan may rebind one row environment in place unless
	// something downstream retains them: window functions do (plan.go
	// windowEnvs), and so does the reorder buffer until its chain finishes.
	phys.reuseEnv = len(q.Windows) == 0 && phys.reorder == nil
	phys.preC = eval.CompileAll(phys.pre, co)
	phys.clauseExprs = newClauseExprs(q, phys.residual, compile)
	for i := range phys.steps {
		step := &phys.steps[i]
		step.filtersC = eval.CompileAll(step.filters, co)
		switch x := step.item.(type) {
		case *ast.FromExpr:
			step.srcC = compile(x.Expr)
		case *ast.FromUnpivot:
			step.srcC = compile(x.Expr)
		}
		if h := step.hash; h != nil {
			h.probeC = eval.CompileAll(h.probeKeys, co)
			h.buildC = eval.CompileAll(h.buildKeys, co)
			h.verifyC = eval.CompileAll(h.verify, co)
			if h.buildIdx != nil {
				h.buildIdx.eqC = compile(h.buildIdx.eq)
			}
		}
		if ia := step.idx; ia != nil {
			ia.eqC = compile(ia.eq)
			ia.loC = compile(ia.lo)
			ia.hiC = compile(ia.hi)
		}
	}
}

// chooseIndexAccess matches a step's pushed conjuncts against the
// available indexes on its collection. Equality wins over range (a
// bucket probe is the tighter prefilter); among range conjuncts, bounds
// over the same key path combine, and the first path (in conjunct
// order) with an ordered index wins. A matched key expression must be
// free of the step's own variables — it is evaluated once per incoming
// environment, before any binding this step produces.
func chooseIndexAccess(src IndexSource, collection string, x *ast.FromExpr, filters []ast.Expr, ownVars map[string]bool) *indexAccess {
	for _, c := range filters {
		path, probe := matchEqConjunct(c, x.As, ownVars)
		if path == nil {
			continue
		}
		if name, ok := src.IndexFor(collection, path, false); ok {
			return &indexAccess{name: name, collection: collection, path: path, eq: probe, estRows: -1}
		}
	}
	type bounds struct {
		path           []string
		lo, hi         ast.Expr
		loIncl, hiIncl bool
	}
	var order []*bounds
	byPath := map[string]*bounds{}
	for _, c := range filters {
		path, lo, hi, loIncl, hiIncl := matchRangeConjunct(c, x.As, ownVars)
		if path == nil {
			continue
		}
		key := strings.Join(path, "\x00")
		b := byPath[key]
		if b == nil {
			b = &bounds{path: path}
			byPath[key] = b
			order = append(order, b)
		}
		if lo != nil && b.lo == nil {
			b.lo, b.loIncl = lo, loIncl
		}
		if hi != nil && b.hi == nil {
			b.hi, b.hiIncl = hi, hiIncl
		}
	}
	for _, b := range order {
		if name, ok := src.IndexFor(collection, b.path, true); ok {
			return &indexAccess{
				name: name, collection: collection, path: b.path, ordered: true,
				lo: b.lo, hi: b.hi, loIncl: b.loIncl, hiIncl: b.hiIncl, estRows: -1,
			}
		}
	}
	return nil
}

// chooseJoinIndex matches a hash join's build keys against indexes on
// the build-side collection: buildKeys[j] must be a key path over the
// build variable, and the paired probe key becomes the index probe.
func chooseJoinIndex(src IndexSource, h *hashJoinStep) *indexAccess {
	ref, ok := h.right.Expr.(*ast.NamedRef)
	if !ok {
		return nil
	}
	for j, bk := range h.buildKeys {
		path := fieldPath(bk, h.right.As)
		if path == nil {
			continue
		}
		if name, ok := src.IndexFor(ref.Name, path, false); ok {
			return &indexAccess{name: name, collection: ref.Name, path: path, eq: h.probeKeys[j], estRows: -1}
		}
	}
	return nil
}

// matchEqConjunct matches `path = key` (either orientation) where path
// navigates attributes from the step variable and key is free of the
// step's variables.
func matchEqConjunct(c ast.Expr, base string, ownVars map[string]bool) ([]string, ast.Expr) {
	eq, ok := c.(*ast.Binary)
	if !ok || eq.Op != "=" {
		return nil, nil
	}
	if path := fieldPath(eq.L, base); path != nil && !intersects(ast.FreeVars(eq.R), ownVars) {
		return path, eq.R
	}
	if path := fieldPath(eq.R, base); path != nil && !intersects(ast.FreeVars(eq.L), ownVars) {
		return path, eq.L
	}
	return nil, nil
}

// matchRangeConjunct matches one range conjunct over a key path: an
// ordering comparison `path < key` / `key <= path` (either orientation)
// or `path BETWEEN lo AND hi`. Bound expressions must be free of the
// step's variables.
func matchRangeConjunct(c ast.Expr, base string, ownVars map[string]bool) (path []string, lo, hi ast.Expr, loIncl, hiIncl bool) {
	switch x := c.(type) {
	case *ast.Binary:
		var flip func(op string) (string, bool)
		flip = func(op string) (string, bool) {
			switch op {
			case "<":
				return ">", true
			case "<=":
				return ">=", true
			case ">":
				return "<", true
			case ">=":
				return "<=", true
			}
			return "", false
		}
		op := x.Op
		l, r := x.L, x.R
		if _, ok := flip(op); !ok {
			return nil, nil, nil, false, false
		}
		path = fieldPath(l, base)
		if path == nil {
			// `key < path` is `path > key`.
			if path = fieldPath(r, base); path == nil {
				return nil, nil, nil, false, false
			}
			op, _ = flip(op)
			l, r = r, l
		}
		if intersects(ast.FreeVars(r), ownVars) {
			return nil, nil, nil, false, false
		}
		switch op {
		case "<":
			return path, nil, r, false, false
		case "<=":
			return path, nil, r, false, true
		case ">":
			return path, r, nil, false, false
		case ">=":
			return path, r, nil, true, false
		}
	case *ast.Between:
		if x.Negate {
			return nil, nil, nil, false, false
		}
		path = fieldPath(x.Target, base)
		if path == nil {
			return nil, nil, nil, false, false
		}
		if intersects(ast.FreeVars(x.Lo), ownVars) || intersects(ast.FreeVars(x.Hi), ownVars) {
			return nil, nil, nil, false, false
		}
		return path, x.Lo, x.Hi, true, true
	}
	return nil, nil, nil, false, false
}

// fieldPath decomposes a chain of attribute accesses rooted at the
// variable base (`base.a.b.c`) into its path steps, or nil when e is
// anything else.
func fieldPath(e ast.Expr, base string) []string {
	var rev []string
	for {
		switch x := e.(type) {
		case *ast.FieldAccess:
			rev = append(rev, x.Name)
			e = x.Base
		case *ast.VarRef:
			if x.Name != base || len(rev) == 0 {
				return nil
			}
			path := make([]string, len(rev))
			for i, s := range rev {
				path[len(rev)-1-i] = s
			}
			return path
		default:
			return nil
		}
	}
}

// analyzeJoinHash turns an INNER or LEFT JOIN with an uncorrelated
// FromExpr right side and splittable equi-conjuncts in its ON condition
// into a hash join. earlier is the set of variables bound by items to the
// join's left in the enclosing block.
func analyzeJoinHash(x *ast.FromJoin, earlier map[string]bool) *hashJoinStep {
	if x.Kind != ast.JoinInner && x.Kind != ast.JoinLeft {
		return nil
	}
	if x.On == nil {
		return nil
	}
	right, ok := x.Right.(*ast.FromExpr)
	if !ok {
		return nil
	}
	leftVars := nameSet(ast.ItemVars(x.Left))
	probeSide := union(earlier, leftVars)
	if ast.FreeVarsOver(right.Expr, probeSide) {
		return nil
	}
	rightVars := nameSet(ast.ItemVars(right))
	probeKeys, buildKeys := splitEquiKeys(conjuncts(x.On), rightVars, probeSide)
	if len(probeKeys) == 0 {
		return nil
	}
	return &hashJoinStep{
		left:      x.Left,
		right:     right,
		probeKeys: probeKeys,
		buildKeys: buildKeys,
		// The full ON condition re-verifies every candidate, keeping
		// join semantics exactly those of the nested loop.
		verify:   []ast.Expr{x.On},
		leftJoin: x.Kind == ast.JoinLeft,
		padVars:  ast.ItemVars(right),
		estBuild: -1,
		estOut:   -1,
	}
}

// analyzeCommaHash turns an uncorrelated comma item with pushed
// equi-conjuncts into a probe-only hash join: the incoming environment
// probes the table built over the item's source.
func analyzeCommaHash(x *ast.FromExpr, step *fromStep, ownVars, earlier map[string]bool) *hashJoinStep {
	var equi []ast.Expr
	var rest []ast.Expr
	var probeKeys, buildKeys []ast.Expr
	for _, c := range step.filters {
		p, b, ok := splitEquiConjunct(c, ownVars, earlier)
		if !ok {
			rest = append(rest, c)
			continue
		}
		equi = append(equi, c)
		probeKeys = append(probeKeys, p)
		buildKeys = append(buildKeys, b)
	}
	if len(equi) == 0 {
		return nil
	}
	step.filters = rest
	return &hashJoinStep{
		right:     x,
		probeKeys: probeKeys,
		buildKeys: buildKeys,
		verify:    equi,
		padVars:   ast.ItemVars(x),
		estBuild:  -1,
		estOut:    -1,
	}
}

// splitEquiKeys extracts the equi-conjuncts of an ON condition: terms
// lhs = rhs where one side avoids the build variables and the other
// avoids the probe variables.
func splitEquiKeys(cs []ast.Expr, buildVars, probeVars map[string]bool) (probeKeys, buildKeys []ast.Expr) {
	for _, c := range cs {
		if p, b, ok := splitEquiConjunct(c, buildVars, probeVars); ok {
			probeKeys = append(probeKeys, p)
			buildKeys = append(buildKeys, b)
		}
	}
	return probeKeys, buildKeys
}

// splitEquiConjunct splits one conjunct of the form lhs = rhs into a
// probe-side key (no build variables free) and a build-side key (no
// probe variables free).
func splitEquiConjunct(c ast.Expr, buildVars, probeVars map[string]bool) (probe, build ast.Expr, ok bool) {
	eq, isBin := c.(*ast.Binary)
	if !isBin || eq.Op != "=" {
		return nil, nil, false
	}
	lFree := ast.FreeVars(eq.L)
	rFree := ast.FreeVars(eq.R)
	if !intersects(lFree, buildVars) && !intersects(rFree, probeVars) {
		return eq.L, eq.R, true
	}
	if !intersects(rFree, buildVars) && !intersects(lFree, probeVars) {
		return eq.R, eq.L, true
	}
	return nil, nil, false
}

// conjuncts flattens nested AND expressions into their conjunct list.
func conjuncts(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

func nameSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func union(a, b map[string]bool) map[string]bool {
	s := make(map[string]bool, len(a)+len(b))
	for n := range a {
		s[n] = true
	}
	for n := range b {
		s[n] = true
	}
	return s
}

func intersects(a, b map[string]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for n := range a {
		if b[n] {
			return true
		}
	}
	return false
}
