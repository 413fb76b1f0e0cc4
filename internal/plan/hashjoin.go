package plan

import (
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// Hash equi-join runtime. The table is built once per block invocation
// over the uncorrelated side, keyed by the canonical value.AppendKey
// encoding of the build keys, and probed once per left binding. Buckets
// are candidate prefilters only: every candidate pair is re-verified
// with the original predicate, so the observable semantics — numeric
// coercion in '=', NULL/MISSING never matching, LEFT JOIN padding — are
// exactly those of the nested loop it replaces.

// hashTable maps the canonical encoding of the build keys to the
// build-side rows carrying that key.
type hashTable struct {
	buckets map[string][]hashRow
	rows    int
}

// hashRow is one build-side binding: the variables its scan introduced,
// plus the binding's position in the build source's enumeration (seq),
// which the join-reorder buffer uses as this step's ordinal. Bucket
// order preserves it, so candidates stream in source order.
type hashRow struct {
	names []string
	vals  []value.Value
	seq   int64
}

// buildHashTable evaluates the build side once and indexes its bindings.
// Rows whose key contains NULL or MISSING are dropped: '=' with an
// absent operand is never TRUE, so they cannot match any probe (a LEFT
// JOIN pads from the probe side, which is unaffected).
func buildHashTable(ctx *eval.Context, outer *eval.Env, h *hashJoinStep) (*hashTable, error) {
	t := &hashTable{buckets: map[string][]hashRow{}}
	var kb []byte
	var seq int64
	err := produceItem(ctx, outer, h.right, func(renv *eval.Env) error {
		// seq numbers every produced binding, including those dropped for
		// absent keys, so retained rows keep their source positions'
		// relative order.
		mySeq := seq
		seq++
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.HashBuildInsert); err != nil {
				return err
			}
		}
		// The build phase is a blocking loop that produces no output rows,
		// so it must poll cancellation itself or a deadline lands only
		// after the whole table is built.
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		kb = kb[:0]
		for _, bk := range h.buildC {
			v, err := bk(ctx, renv)
			if err != nil {
				return err
			}
			if value.IsAbsent(v) {
				return nil
			}
			kb = value.AppendKey(kb, v)
		}
		names := renv.Names()
		row := hashRow{names: names, vals: make([]value.Value, len(names)), seq: mySeq}
		for i, n := range names {
			v, _ := renv.Lookup(n)
			row.vals[i] = v
		}
		t.rows++
		if err := checkSize(ctx, t.rows); err != nil {
			return err
		}
		if ctx.Gov != nil {
			if err := ctx.Gov.ChargeBindings("hash-build", row.vals); err != nil {
				return err
			}
		}
		t.buckets[string(kb)] = append(t.buckets[string(kb)], row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// probeFor builds hash step i's probe: the work done per left binding.
// When h.left is set (JOIN ... ON) the left subtree's bindings probe;
// otherwise the environment incoming to the step itself probes (comma
// cross product). The closure, its probe-key buffer and — when the plan
// allows rebinding row environments in place (phys.reuseEnv) — its one
// candidate environment live as long as the chain, so a probe allocates
// nothing of its own.
func (c *chain) probeFor(i int, h *hashJoinStep) emit {
	st, ctx, k := c.st, c.ctx, c.fns[i]
	var ss *stepStats
	if st.stats != nil {
		ss = &st.stats[i]
	}
	reuse := st.phys.reuseEnv
	var kb []byte
	var cand *eval.Env
	// candidate returns the environment a build row (or the LEFT JOIN
	// padding) binds into, nested in lenv. Every candidate binds the same
	// names — the build side's variables — so a reused one is rebound in
	// place.
	candidate := func(lenv *eval.Env) *eval.Env {
		if !reuse {
			return lenv.Child()
		}
		if cand == nil {
			cand = lenv.Child()
		} else {
			cand.Rebase(lenv)
		}
		return cand
	}
	return func(lenv *eval.Env) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		// The table builds on first probe, so a join whose probe side is
		// empty never evaluates the build side — as the nested loop
		// wouldn't.
		tbl, err := st.tables[i].get(func() (*hashTable, error) {
			if ss == nil {
				return buildHashTable(ctx, st.outer, h)
			}
			// The hash node's time is the build; probe work is counted on
			// the probe side's own nodes.
			stop := ss.node.Timer()
			t, err := buildHashTable(ctx, st.outer, h)
			stop()
			if err == nil {
				ss.node.Counter("buckets").Store(int64(len(t.buckets)))
				ss.node.Counter("build_rows").Store(int64(t.rows))
			}
			return t, err
		})
		if err != nil {
			return err
		}
		if ss != nil {
			ss.node.AddIn(1)
		}
		kb = kb[:0]
		absent := false
		for _, pk := range h.probeC {
			v, err := pk(ctx, lenv)
			if err != nil {
				return err
			}
			if value.IsAbsent(v) {
				absent = true
				break
			}
			kb = value.AppendKey(kb, v)
		}
		var bucket []hashRow
		if !absent {
			bucket = tbl.buckets[string(kb)]
		}
		matched := false
		for _, row := range bucket {
			if ss != nil {
				ss.candidates.Add(1)
			}
			if st.ord != nil {
				st.ord[i] = row.seq
			}
			cand := candidate(lenv)
			for j, n := range row.names {
				cand.Bind(n, row.vals[j])
			}
			ok, err := filtersPass(ctx, cand, h.verifyC)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			matched = true
			if ss != nil {
				ss.verified.Add(1)
				ss.node.AddOut(1)
			}
			if err := k(cand); err != nil {
				return err
			}
		}
		if !matched && h.leftJoin {
			if ss != nil {
				ss.pads.Add(1)
				ss.node.AddOut(1)
			}
			padded := candidate(lenv)
			for _, n := range h.padVars {
				padded.Bind(n, value.Null)
			}
			return k(padded)
		}
		return nil
	}
}
