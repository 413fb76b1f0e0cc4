package plan

// Runtime of cost-based join reordering. The planner (cost.go) may run a
// FROM chain's steps in a cheaper order than written; SQL++ comma joins
// are left-correlated nested loops whose output order is observable
// (bags render in production order, GROUP AS content accumulates in it),
// so the reordered chain cannot just stream. Instead each produced
// binding is buffered with its ordinal vector — the element position
// every step's binding came from, rearranged into written step order —
// and the buffer is replayed in ascending ordinal order, which is
// exactly the order the written nested loop would have produced.
//
// The binding environments are also re-nested: execution builds scope
// chains in executed order, but GROUP AS snapshots (Env.SnapshotBelow)
// and any later lookup observe nesting order, so each buffered
// environment is rebuilt (Env.RechainBelow, sharing the scopes' binding
// storage) with the written nesting restored.
//
// The buffer holds the full join result before anything downstream
// runs; that is the price of byte-identity, charged to the governor at
// the "join-order" site like any other materialization. The planner
// only reorders when the written order is estimated to be expensive
// enough that the buffered plan still wins.

import (
	"sort"

	"sqlpp/internal/eval"
)

// reorderedRow is one buffered binding: its written-order ordinal vector
// and its re-nested environment.
type reorderedRow struct {
	key []int64
	env *eval.Env
}

// produceReordered runs the reordered step chain, buffering and
// re-sorting its bindings into written production order before passing
// them on to fromRow. The chain that runs the steps in executed order
// folds its counts into the block's own.
func (r *blockRun) produceReordered() error {
	st, ctx := r.st, r.ctx
	ro := st.phys.reorder
	n := len(st.phys.steps)
	st.ord = make([]int64, n)
	var rows []reorderedRow
	start := ctx.Clock()
	var c chain
	err := c.init(st, ctx, func(env *eval.Env) error {
		r.reorder.In++
		key := make([]int64, n)
		for w := 0; w < n; w++ {
			key[w] = st.ord[ro.newPosOf[w]]
		}
		rows = append(rows, reorderedRow{key: key, env: env.RechainBelow(st.outer, ro.newPosOf)})
		if ctx.Gov != nil {
			return ctx.Gov.ChargeBindings("join-order", nil)
		}
		return nil
	}).run(st.outer, 0)
	r.c.fold(&c)
	ctx.Time(&r.reorder.Nanos, start)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		ka, kb := rows[a].key, rows[b].key
		for w := range ka {
			if ka[w] != kb[w] {
				return ka[w] < kb[w]
			}
		}
		return false
	})
	for i := range rows {
		r.reorder.Out++
		if err := r.fromRow(rows[i].env); err != nil {
			return err
		}
	}
	return nil
}
