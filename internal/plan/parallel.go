package plan

import (
	"slices"
	"sync"

	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// Parallel outer scan. An unordered block whose outermost FROM item is a
// plain scan partitions the scanned collection into contiguous chunks.
// Each worker runs the block's own pipeline — the scan operator's loop,
// the rest of the step chain, the pre-group clauses and the grouper or
// the row sink — over its chunk, in a run state of its own that shares
// the block's hoisted sources and hash tables. The workers' groupers or
// sinks then merge, in chunk order, into the block's. Because the chunks
// are contiguous and the merge walks them in order, the output is
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

// scanParallel produces the block's outer scan partitioned across
// workers and merges their groups or rows into r. A source that is not a
// materialized collection, or too small to be worth splitting, is
// scanned sequentially.
func (r *blockRun) scanParallel() error {
	ctx, st := r.ctx, r.st
	src, err := r.c.source(st.outer, 0)
	if err != nil {
		return err
	}
	elems, isColl := value.Elements(src)
	// The plan-time chunk hint (statistics row estimate divided across
	// the worker budget) bounds the split; without statistics the floor
	// is the static minimum chunk.
	workers := min(ctx.Parallelism, len(elems)/max(parallelMinChunk, st.phys.chunkHint))
	if !isColl || len(elems) < parallelMinRows || workers < 2 {
		return r.c.scan(st.outer, 0, src)
	}
	if st.stats != nil {
		node := st.stats[0].node
		node.AddIn(int64(len(elems)))
		node.Counter("chunks").Store(int64(workers))
	}
	isArray := src.Kind() == value.KindArray
	runs := make([]*blockRun, workers)
	errs := make([]error, workers)
	chunk := (len(elems) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range runs {
		lo, hi := w*chunk, min((w+1)*chunk, len(elems))
		wr := newBlockRun(ctx.Fork(), r.q, r.ex, st.phys, st)
		wr.reset(st.outer, -1, 0)
		wr.sink.keepKeys = r.q.Select.Distinct
		runs[w] = wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic anywhere in this worker's pipeline must not kill the
			// process: it becomes the worker's error, and the merge below
			// surfaces it like any other per-chunk failure.
			defer func() {
				if p := recover(); p != nil {
					errs[w] = wr.ctx.Recovered(p)
				}
			}()
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.WorkerStart); err != nil {
					errs[w] = err
					return
				}
			}
			if err := wr.c.scanElems(st.outer, 0, elems[lo:hi], lo, isArray); err != nil && err != errStop {
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if r.grp != nil {
		for _, wr := range runs {
			if err := r.grp.merge(wr.grp); err != nil {
				return err
			}
		}
		return nil
	}
	total := 0
	for _, wr := range runs {
		total += len(wr.sink.out)
	}
	r.sink.out = slices.Grow(r.sink.out, total)
	for _, wr := range runs {
		if err := r.sink.merge(&wr.sink); err != nil {
			return err
		}
	}
	if r.sink.stDistinct != nil {
		// The worker sinks each counted their local uniques; the global
		// re-deduplication is the true output cardinality.
		r.sink.stDistinct.SetOut(int64(len(r.sink.out)))
	}
	return nil
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
