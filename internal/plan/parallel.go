package plan

import (
	"sync"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// Parallel outer scan. An unordered block whose outermost FROM item is a
// plain scan partitions the scanned collection into contiguous chunks,
// runs the rest of the pipeline over each chunk in its own worker, and
// merges the per-worker results in chunk order. Because the chunks are
// contiguous and the merge walks them in order, the output is
// byte-identical to sequential execution: group first-appearance order,
// group content order, DISTINCT first occurrences, and row order are all
// the sequential ones. Workers never observe each other's failures; the
// merge reports the first error in chunk order, which is the error the
// sequential plan would have hit.

// parallelMinRows is the smallest outer-scan cardinality worth
// parallelizing: below it, worker startup and merge overhead dominate.
// A variable so tests can lower it.
var parallelMinRows = 1024

// parallelMinChunk bounds how finely the scan is split, so a scan barely
// over the threshold does not fan out into trivial chunks.
const parallelMinChunk = 256

// runSFWParallel executes an eligible block with a partitioned outer
// scan. done reports whether the block was handled; when false the
// caller falls back to sequential execution (the source was not a
// materialized collection, or is too small to be worth it).
//
// governor:charged-at each worker's row sink (plan.go) — the final
// merges only concatenate rows the sinks already charged, with
// checkSize bounding the combined cardinality.
func runSFWParallel(ctx *eval.Context, outer *eval.Env, q *ast.SFW, phys *sfwPhys) (result value.Value, done bool, err error) {
	scan := q.From[0].(*ast.FromExpr)
	ex := &phys.clauseExprs

	// The pre filters and the outer source evaluate exactly once, as in
	// the sequential plan.
	ok, err := filtersPass(ctx, outer, phys.preC)
	if err != nil {
		return nil, true, err
	}
	if !ok {
		if ctx.Stats != nil && len(phys.pre) > 0 {
			ctx.Stats.Node(statsParent(ctx), phys, "pre", "filter", "pre").AddIn(1)
		}
		return newRowSink(ctx, q, ex, false, -1, 0).finish(-1, 0), true, nil
	}
	src, err := phys.steps[0].srcC(ctx, outer)
	if err != nil {
		return nil, true, err
	}
	var elems []value.Value
	isArray := false
	switch s := src.(type) {
	case value.Array:
		elems = s
		isArray = true
	case value.Bag:
		elems = s
	default:
		// MISSING, singleton, or error sources keep the sequential
		// path's handling.
		return nil, false, nil
	}
	if len(elems) < parallelMinRows {
		return nil, false, nil
	}
	// The plan-time chunk hint (statistics row estimate divided across
	// the worker budget) bounds the split below; without statistics the
	// floor is the static minimum chunk.
	minChunk := parallelMinChunk
	if phys.chunkHint > minChunk {
		minChunk = phys.chunkHint
	}
	workers := ctx.Parallelism
	if most := len(elems) / minChunk; workers > most {
		workers = most
	}
	if workers < 2 {
		return nil, false, nil
	}

	// Steps 1..n share one physState: hoisted sources and hash tables
	// build once (under sync.Once) and are read-only afterwards.
	st := newPhysState(ctx, phys, outer)
	filtersC := phys.steps[0].filtersC
	// Each worker owns its chunk's child environment exclusively, so the
	// same per-row reuse the fused sequential scan applies is safe here —
	// one rebindable env per worker, gated on the same window-free check.
	reuse := phys.reuseEnv

	// EXPLAIN ANALYZE: the workers fold into the same keyed nodes the
	// sequential plan would use; only the counters below are recorded
	// here because the partitioned scan replaces step 0's production.
	var scanNode, filterNode *eval.StatsNode
	if ctx.Stats != nil {
		if st.preFilter != nil {
			st.preFilter.AddIn(1)
			st.preFilter.AddOut(1)
		}
		scanNode = st.stats[0].node
		scanNode.AddIn(int64(len(elems)))
		scanNode.Counter("chunks").Store(int64(workers))
		filterNode = st.stats[0].filter
	}

	type worker struct {
		sink    *rowSink
		grouper grouper
		err     error
	}
	ws := make([]worker, workers)
	chunk := (len(elems) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(elems) {
			hi = len(elems)
		}
		wctx := ctx.Fork()
		sink := newRowSink(wctx, q, ex, false, -1, 0)
		sink.keepKeys = q.Select.Distinct
		ws[w].sink = sink
		var consume emit
		if q.GroupBy != nil {
			ws[w].grouper = newGrouper(wctx, outer, q.GroupBy, ex.group, phys)
			consume = ws[w].grouper.add
		} else {
			consume = havingChain(wctx, q, ex, sink.consumer())
		}
		consume = preGroupChain(wctx, q, ex, consume)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// A panic anywhere in this worker's pipeline must not kill the
			// process: it becomes the worker's error, and the merge below
			// surfaces it like any other per-chunk failure.
			defer func() {
				if p := recover(); p != nil {
					ws[w].err = wctx.Recovered(p)
				}
			}()
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.WorkerStart); err != nil {
					ws[w].err = err
					return
				}
			}
			rest := new(chain).init(st, wctx, consume)
			var child *eval.Env
			for j := lo; j < hi; j++ {
				if err := wctx.Interrupted(); err != nil {
					ws[w].err = err
					return
				}
				if child == nil || !reuse {
					child = outer.Child()
				}
				child.Bind(scan.As, elems[j])
				if scan.AtVar != "" {
					// Bags are unordered: AT binds MISSING.
					ord := value.Missing
					if isArray {
						ord = value.Int(int64(j))
					}
					child.Bind(scan.AtVar, ord)
				}
				if scanNode != nil {
					scanNode.AddOut(1)
					if filterNode != nil {
						filterNode.AddIn(1)
					}
				}
				ok, err := filtersPass(wctx, child, filtersC)
				if err != nil {
					ws[w].err = err
					return
				}
				if !ok {
					continue
				}
				if filterNode != nil {
					filterNode.AddOut(1)
				}
				if err := rest.run(child, 1); err != nil {
					if err == errStop {
						return
					}
					ws[w].err = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for i := range ws {
		if ws[i].err != nil {
			return nil, true, ws[i].err
		}
	}

	if q.GroupBy != nil {
		merged := newGrouper(ctx, outer, q.GroupBy, ex.group, phys)
		for i := range ws {
			if err := merged.merge(ws[i].grouper); err != nil {
				return nil, true, err
			}
		}
		sink := newRowSink(ctx, q, ex, false, -1, 0)
		if err := merged.flush(havingChain(ctx, q, ex, sink.consumer())); err != nil && err != errStop {
			return nil, true, err
		}
		return sink.finish(-1, 0), true, nil
	}

	if q.Select.Distinct {
		seen := map[string]bool{}
		var out []value.Value
		for i := range ws {
			s := ws[i].sink
			for j, v := range s.out {
				if err := ctx.Interrupted(); err != nil {
					return nil, true, err
				}
				if seen[s.keys[j]] {
					continue
				}
				seen[s.keys[j]] = true
				out = append(out, v)
				if err := checkSize(ctx, len(out)); err != nil {
					return nil, true, err
				}
			}
		}
		if ctx.Stats != nil {
			// The worker sinks each counted their local uniques; the
			// global re-deduplication is the true output cardinality.
			ctx.Stats.Node(statsParent(ctx), q, "distinct", "distinct", "").SetOut(int64(len(out)))
		}
		return value.Bag(out), true, nil
	}

	total := 0
	for i := range ws {
		total += len(ws[i].sink.out)
	}
	if err := checkSize(ctx, total); err != nil {
		return nil, true, err
	}
	// A PIVOT's pairs concatenate like rows, so duplicate names keep
	// their sequential order.
	sink := newRowSink(ctx, q, ex, false, -1, 0)
	sink.out = make([]value.Value, 0, total)
	for i := range ws {
		sink.out = append(sink.out, ws[i].sink.out...)
		sink.keys = append(sink.keys, ws[i].sink.keys...)
	}
	return sink.finish(-1, 0), true, nil
}

// merge folds another worker's groups into g, preserving g's (chunk
// order) group-appearance order and appending content in chunk order.
//
// governor:charged-at groupState.add (from.go) — every row moved here
// was charged when its worker grouped it; checkSize re-bounds the
// merged group sizes.
func (g *groupState) merge(other grouper) error {
	w := other.(*groupState)
	for _, ks := range w.order {
		if _, ok := g.content[ks]; !ok {
			g.order = append(g.order, ks)
			g.keyVals[ks] = w.keyVals[ks]
			g.content[ks] = w.content[ks]
		} else {
			if g.ctx.Compat {
				mergeCompatKeys(g.keyVals[ks], w.keyVals[ks])
			}
			g.content[ks] = append(g.content[ks], w.content[ks]...)
		}
		if err := checkSize(g.ctx, len(g.content[ks])); err != nil {
			return err
		}
	}
	return nil
}
