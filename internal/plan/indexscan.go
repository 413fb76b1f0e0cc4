package plan

import (
	"slices"
	"sync"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/index"
	"sqlpp/internal/value"
)

// Secondary-index runtime. A planned indexAccess is only a suggestion:
// the index is resolved by name at first use, against the catalog the
// query actually runs over. If it is gone or no longer matches the plan
// (dropped, redeclared, its collection re-registered as a non-
// collection), the step falls back to the ordinary scan it replaced —
// the matched conjuncts never left the step's filters, so the fallback
// is bit-identical, just slower. Index probes yield candidate positions
// in ascending element order (original scan order) and every candidate
// is re-verified, which is what keeps indexed execution byte-identical
// to naive execution under permissive semantics.

// indexLookup is the optional extension of eval.NameSource through
// which the runtime resolves planned index choices; the catalog
// implements it.
type indexLookup interface {
	LookupIndex(name string) (*index.Index, bool)
}

// lazyIndex resolves an index choice once per block invocation, so all
// probes (and all workers sharing a physState) agree on one snapshot.
type lazyIndex struct {
	once sync.Once
	ix   *index.Index
}

func (l *lazyIndex) get(f func() *index.Index) *index.Index {
	l.once.Do(func() { l.ix = f() })
	return l.ix
}

// resolveIndex binds a planned index choice to the live catalog, or nil
// to fall back to scanning.
func resolveIndex(ctx *eval.Context, ia *indexAccess) *index.Index {
	src, ok := ctx.Names.(indexLookup)
	if !ok {
		return nil
	}
	ix, ok := src.LookupIndex(ia.name)
	if !ok {
		return nil
	}
	sp := ix.Spec()
	if sp.Collection != ia.collection || !slices.Equal(sp.Path, ia.path) {
		return nil
	}
	if (ia.ordered || ia.eq == nil) && sp.Kind != index.Ordered {
		return nil
	}
	return ix
}

// probePositions evaluates the access path's probe expressions in env
// and returns the candidate positions. An absent probe key or bound
// matches nothing (equality and ordering against MISSING/NULL are never
// TRUE). An empty index short-circuits before evaluating anything, so a
// query over an empty collection evaluates exactly what the naive scan
// would: nothing.
//
// governor: equality hits charged here; range runs charged in Range.
func probePositions(ctx *eval.Context, env *eval.Env, ia *indexAccess, ix *index.Index) ([]int32, error) {
	if ix.Len() == 0 {
		return nil, nil
	}
	if ia.eq != nil {
		key, err := ia.eqC(ctx, env)
		if err != nil {
			return nil, err
		}
		pos := ix.Lookup(key)
		if ctx.Gov != nil && len(pos) > 0 {
			if err := ctx.Gov.ChargeValues("index-probe", int64(len(pos)), nil); err != nil {
				return nil, err
			}
		}
		return pos, nil
	}
	var lo, hi value.Value
	if ia.lo != nil {
		v, err := ia.loC(ctx, env)
		if err != nil {
			return nil, err
		}
		if value.IsAbsent(v) {
			return nil, nil
		}
		lo = v
	}
	if ia.hi != nil {
		v, err := ia.hiC(ctx, env)
		if err != nil {
			return nil, err
		}
		if value.IsAbsent(v) {
			return nil, nil
		}
		hi = v
	}
	return ix.Range(lo, hi, ia.loIncl, ia.hiIncl, ctx.Gov)
}

// runIndexScan produces step i's bindings from an index probe instead of
// a full scan. Each candidate goes through the step's filter-applying
// continuation, so it is re-verified against the original conjuncts.
func (c *chain) runIndexScan(env *eval.Env, i int, ix *index.Index) error {
	st, ctx, k, l := c.st, c.ctx, c.fns[i], &c.links[i]
	step := &st.phys.steps[i]
	x := step.item.(*ast.FromExpr)
	l.lookups++
	defer ctx.Time(&l.item.Nanos, ctx.Clock())
	positions, err := probePositions(ctx, env, step.idx, ix)
	if err != nil {
		return err
	}
	l.item.In += int64(len(positions))
	l.hits += int64(len(positions))
	elems, ok := value.Elements(ix.Source())
	if !ok {
		return nil
	}
	isArray := ix.Source().Kind() == value.KindArray
	var child *eval.Env
	for _, p := range positions {
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.IndexProbeNext); err != nil {
				return err
			}
		}
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		if st.ord != nil {
			st.ord[i] = int64(p)
		}
		if child == nil || !st.phys.reuseEnv {
			child = c.frame(i, env)
		}
		// AT over an array binds the element's original ordinal: the index
		// preserved positions exactly for this.
		bindElem(child, x, elems[p], int(p), isArray)
		l.item.Out++
		if err := k(child); err != nil {
			return err
		}
	}
	return nil
}

// indexProbeFor builds index-join step i's probe of one left binding:
// it looks the probe key up in an existing index on the build key instead
// of a hash table. Verification (the full ON condition) and LEFT JOIN
// padding are exactly the hash probe's, so the join's observable
// semantics are unchanged; only the build phase disappears. The probe
// runs only once the step has resolved its index (chain.run), and binds
// its candidates into the step's frame, as the hash probe does.
func (c *chain) indexProbeFor(i int, h *hashJoinStep) emit {
	st, ctx, k, l, j := c.st, c.ctx, c.fns[i], &c.links[i], c.links[i].join
	x := h.right
	return func(lenv *eval.Env) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		ix := st.lazy[i].idx.ix
		elems, ok := value.Elements(ix.Source())
		if !ok {
			return nil
		}
		isArray := ix.Source().Kind() == value.KindArray
		j.In++
		l.lookups++
		key, err := h.buildIdx.eqC(ctx, lenv)
		if err != nil {
			return err
		}
		positions := ix.Lookup(key)
		if ctx.Gov != nil && len(positions) > 0 {
			if err := ctx.Gov.ChargeValues("index-probe", int64(len(positions)), nil); err != nil {
				return err
			}
		}
		l.hits += int64(len(positions))
		matched := false
		for _, p := range positions {
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.IndexProbeNext); err != nil {
					return err
				}
			}
			j.candidates++
			cand := c.frame(i, lenv)
			bindElem(cand, x, elems[p], int(p), isArray)
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
