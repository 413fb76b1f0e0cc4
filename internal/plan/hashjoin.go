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
// chained through an index slice. The keys are numbered by a
// value.KeyTable. Its slices are presized from the source, whose row
// count bounds the keys too (up to buildKeyReserve), so a build
// allocates per table, not per row or per key.

// hashTable is a hash join's build side. Row r binds names[j] to
// vals[r*w+j], w = len(names). keys numbers the distinct key encodings;
// the rows of key o form a chain from chains[o] through next (-1 ends
// it), first to last in source order.
type hashTable struct {
	names []string
	vals  []value.Value
	// seq is each row's position in the build source's enumeration,
	// which the join-reorder buffer uses as this step's ordinal; nil
	// when the chain is not reordered.
	seq    []int64
	next   []int32
	keys   value.KeyTable
	chains []int32
	// scan counts the build side's scan: the rows it bound, absent keys
	// included.
	scan eval.Rows
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
	t := &hashTable{names: []string{x.As}}
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
		// next holds each row's key ordinal until the scan ends.
		o, _ := t.keys.Intern(kb)
		t.next = append(t.next, int32(o))
		return nil
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
	t.keys.Reserve(min(n, buildKeyReserve))
	if err := scanValue(ctx, outer, x, src, outer.Child(), &t.scan, k); err != nil {
		return nil, err
	}
	// Chain each key's rows, walking them last to first so that every
	// chain runs in source order.
	t.chains = make([]int32, t.keys.Len())
	for o := range t.chains {
		t.chains[o] = -1
	}
	for r := len(t.next) - 1; r >= 0; r-- {
		o := t.next[r]
		t.next[r], t.chains[o] = t.chains[o], int32(r)
	}
	return t, nil
}

// buildKeyReserve bounds the keys a build presizes its key table for.
// Its rows bound its keys, but a large build over few keys would then
// zero slots for every row; past the bound the table grows by doubling.
const buildKeyReserve = 1024

// buildCap is the row capacity a build over src presizes to: the
// source's length, capped by what the governor still admits, so a build
// it stops at row k allocates for k rows, not for the whole source.
func buildCap(ctx *eval.Context, src value.Value, w int) int {
	n := 1
	if elems, ok := value.Elements(src); ok {
		n = len(elems)
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
// candidate environment, the step's frame, live as long as the chain, so
// a probe allocates nothing of its own. Every candidate binds the same
// names — the build side's variables — so the frame is rebound in place.
func (c *chain) probeFor(i int, h *hashJoinStep) emit {
	st, ctx, k, j := c.st, c.ctx, c.fns[i], c.links[i].join
	var kb []byte
	return func(lenv *eval.Env) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		// The table builds on first probe, so a join whose probe side is
		// empty never evaluates the build side — as the nested loop
		// wouldn't.
		tbl, err := st.lazy[i].tab.get(func() (*hashTable, error) {
			// The join's time is the build; probe work is counted on the
			// probe side's own operators.
			start := ctx.Clock()
			t, err := buildHashTable(ctx, st.outer, h, st.ord != nil)
			ctx.Time(&j.Nanos, start)
			if err == nil {
				j.table = t
				j.built += t.scan.Out
			}
			return t, err
		})
		if err != nil {
			return err
		}
		j.In++
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
			if o := tbl.keys.Find(kb); o >= 0 {
				r = tbl.chains[o]
			}
		}
		w := len(tbl.names)
		matched := false
		for ; r >= 0; r = tbl.next[r] {
			j.candidates++
			if st.ord != nil {
				st.ord[i] = tbl.seq[r]
			}
			cand := c.frame(i, lenv)
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
			j.verified++
			j.Out++
			if err := k(cand); err != nil {
				return err
			}
		}
		if !matched && h.leftJoin {
			j.pads++
			j.Out++
			padded := c.frame(i, lenv)
			for _, n := range h.padVars {
				padded.Bind(n, value.Null)
			}
			return k(padded)
		}
		return nil
	}
}
