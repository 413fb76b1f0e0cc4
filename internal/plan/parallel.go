package plan

import (
	"slices"
	"sync"

	"sqlpp/internal/eval"
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
// sequential plan would have hit. The workers' counts — their chains',
// groupers' and sinks', and those of the blocks and set operations their
// forked contexts ran — fold into the block's in the same chunk order.

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
	scan := &r.c.links[0].item.OpCounts
	defer ctx.Time(&scan.Nanos, ctx.Clock())
	scan.In += int64(len(elems))
	r.chunks = int64(workers)
	isArray := src.Kind() == value.KindArray
	runs := make([]*blockRun, workers)
	errs := make([]error, workers)
	chunk := (len(elems) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range runs {
		lo, hi := w*chunk, min((w+1)*chunk, len(elems))
		wr := newBlockRun(ctx.Fork(), r.block, st.phys, st)
		wr.reset(st.outer, -1, 0)
		if r.grp == nil {
			wr.sink.take()
		}
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
	for _, wr := range runs {
		r.fold(wr)
		foldRuns(ctx, wr.ctx.Runs)
	}
	if r.grp != nil {
		for _, wr := range runs {
			r.grp.merge(wr.grp)
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
	// The rows are all in r's sink now: the workers' scratch goes back
	// to the pool. A failed scan, above, drops it instead.
	for _, wr := range runs {
		wr.sink.release()
	}
	return nil
}

// foldRuns folds the run states a worker's forked context parked — the
// nested blocks and set operations its chunk entered — into ctx's, slot
// by slot, in chunk order: a block's rows out become those of the last
// worker that ran it, as they would be sequentially.
func foldRuns(ctx *eval.Context, runs []any) {
	for slot, w := range runs {
		switch w := w.(type) {
		case *blockRun:
			p := ctx.RunState(slot)
			r, ok := (*p).(*blockRun)
			if !ok || r.block != w.block {
				r = newBlockRun(ctx, w.block, w.st.phys, nil)
				*p = r
			}
			r.absorb(w)
		case *eval.OpCounts:
			p := ctx.RunState(slot)
			counts, ok := (*p).(*eval.OpCounts)
			if !ok {
				counts = new(eval.OpCounts)
				*p = counts
			}
			counts.Add(*w)
		}
	}
}

// merge folds another worker's groups into g, preserving g's (chunk
// order) group-appearance order and appending content in chunk order.
//
// governor:charged-at groupState.add (from.go) — every row moved here
// was charged when its worker grouped it.
func (g *groupState) merge(other grouper) {
	w := other.(*groupState)
	for wo, bag := range w.content {
		o, isNew := g.table.Intern(w.table.Key(wo))
		if isNew {
			g.keyVals, g.content = append(g.keyVals, w.keyVals[wo]), append(g.content, bag)
			continue
		}
		if g.ctx.Compat {
			mergeCompatKeys(g.keyVals[o], w.keyVals[wo])
		}
		g.content[o] = append(g.content[o], bag...)
	}
}
