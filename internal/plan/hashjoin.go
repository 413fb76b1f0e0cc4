package plan

import (
	"fmt"
	"math"

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
//
// Every build row binds the same variables, so the table is flat: the
// names once, each row's values in one shared slice, and each key's rows
// chained through an index slice. Its slices are presized from the
// source, so a build allocates per table, not per row.

// hashTable is a hash join's build side. Row r binds names[j] to
// vals[r*w+j], w = len(names). The rows of one key form a chain through
// next (-1 ends it), first to last in source order; buckets maps a key's
// encoding to its chain, whose first and last rows are chains[c].
type hashTable struct {
	names []string
	vals  []value.Value
	// seq is each row's position in the build source's enumeration,
	// which the join-reorder buffer uses as this step's ordinal; nil
	// when the chain is not reordered.
	seq     []int64
	next    []int32
	buckets map[string]int32
	chains  [][2]int32
}

// buildHashTable evaluates the build side once and indexes its bindings.
// Rows whose key contains NULL or MISSING are dropped: '=' with an
// absent operand is never TRUE, so they cannot match any probe (a LEFT
// JOIN pads from the probe side, which is unaffected). The scan rebinds
// one environment per row, which is safe because the table copies out
// every value it keeps and no build environment reaches a consumer.
// keepSeq records each row's source position, for a reordered chain.
func buildHashTable(ctx *eval.Context, outer *eval.Env, h *hashJoinStep, keepSeq bool) (*hashTable, error) {
	x := h.right
	t := &hashTable{names: []string{x.As}, buckets: map[string]int32{}}
	if x.AtVar != "" {
		t.names = append(t.names, x.AtVar)
	}
	w := len(t.names)
	var kb []byte
	var seq int64
	k := func(renv *eval.Env) error {
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
		r := len(t.next)
		if err := checkSize(ctx, r+1); err != nil {
			return err
		}
		if r == math.MaxInt32 {
			return fmt.Errorf("plan: hash join build side exceeds %d rows", math.MaxInt32)
		}
		for _, n := range t.names {
			v, _ := renv.Lookup(n)
			t.vals = append(t.vals, v)
		}
		if ctx.Gov != nil {
			if err := ctx.Gov.ChargeBindings("hash-build", t.vals[r*w:]); err != nil {
				return err
			}
		}
		if keepSeq {
			t.seq = append(t.seq, mySeq)
		}
		t.next = append(t.next, -1)
		if c, ok := t.buckets[string(kb)]; ok {
			t.next[t.chains[c][1]] = int32(r)
			t.chains[c][1] = int32(r)
		} else {
			t.buckets[string(kb)] = int32(len(t.chains))
			t.chains = append(t.chains, [2]int32{int32(r), int32(r)})
		}
		return nil
	}
	if ctx.Stats != nil {
		n := itemNode(ctx, x)
		k = countOut(n, k)
		defer n.Timer()()
	}
	src, err := h.srcC(ctx, outer)
	if err != nil {
		return nil, err
	}
	n := buildCap(ctx, src, w)
	t.vals = make([]value.Value, 0, n*w)
	if keepSeq {
		t.seq = make([]int64, 0, n)
	}
	t.next = make([]int32, 0, n)
	if err := scanValue(ctx, outer, x, src, true, k); err != nil {
		return nil, err
	}
	return t, nil
}

// buildCap is the row capacity a build over src presizes to: the
// source's length, capped by what MaxCollectionSize and the governor
// still admit, so a build they stop at row k allocates for k rows, not
// for the whole source.
func buildCap(ctx *eval.Context, src value.Value, w int) int {
	n := 1
	if elems, ok := value.Elements(src); ok {
		n = len(elems)
	}
	if m := ctx.MaxCollectionSize; m > 0 && m < n {
		n = m
	}
	if ctx.Gov != nil {
		if left := ctx.Gov.BindingsLeft(w); left >= 0 && left < int64(n) {
			n = int(left)
		}
	}
	return n
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
		tbl, err := st.lazy[i].tab.get(func() (*hashTable, error) {
			if ss == nil {
				return buildHashTable(ctx, st.outer, h, st.ord != nil)
			}
			// The hash node's time is the build; probe work is counted on
			// the probe side's own nodes.
			stop := ss.node.Timer()
			t, err := buildHashTable(ctx, st.outer, h, st.ord != nil)
			stop()
			if err == nil {
				ss.node.Counter("buckets").Store(int64(len(t.buckets)))
				ss.node.Counter("build_rows").Store(int64(len(t.next)))
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
		r := int32(-1)
		if !absent {
			if c, ok := tbl.buckets[string(kb)]; ok {
				r = tbl.chains[c][0]
			}
		}
		w := len(tbl.names)
		matched := false
		for ; r >= 0; r = tbl.next[r] {
			if ss != nil {
				ss.candidates.Add(1)
			}
			if st.ord != nil {
				st.ord[i] = tbl.seq[r]
			}
			cand := candidate(lenv)
			row := tbl.vals[int(r)*w : (int(r)+1)*w]
			for j, n := range tbl.names {
				cand.Bind(n, row[j])
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
