package funcs

import (
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

func (r *Registry) registerCollections() {
	r.Register("CARDINALITY", 1, 1, scalar("CARDINALITY", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		if elems, ok := value.Elements(args[0]); ok {
			return value.Int(int64(len(elems))), nil
		}
		if t, ok := args[0].(*value.Tuple); ok {
			return value.Int(int64(t.Len())), nil
		}
		return nil, typeErr("CARDINALITY", "argument is "+args[0].Kind().String())
	}))
	r.Register("ARRAY_LENGTH", 1, 1, scalar("ARRAY_LENGTH", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		a, ok := args[0].(value.Array)
		if !ok {
			return nil, typeErr("ARRAY_LENGTH", "argument is "+args[0].Kind().String())
		}
		return value.Int(int64(len(a))), nil
	}))
	r.Register("ARRAY_CONCAT", 2, -1, scalar("ARRAY_CONCAT", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		var out value.Array
		for _, a := range args {
			elems, ok := value.Elements(a)
			if !ok {
				return nil, typeErr("ARRAY_CONCAT", "argument is "+a.Kind().String())
			}
			out = append(out, elems...)
		}
		return out, nil
	}))
	r.Register("ARRAY_CONTAINS", 2, 2, scalar("ARRAY_CONTAINS", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		elems, ok := value.Elements(args[0])
		if !ok {
			return nil, typeErr("ARRAY_CONTAINS", "first argument is "+args[0].Kind().String())
		}
		return value.Bool(value.ContainsEquivalent(elems, args[1])), nil
	}))
	r.Register("ARRAY_DISTINCT", 1, 1, scalar("ARRAY_DISTINCT", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		elems, ok := value.Elements(args[0])
		if !ok {
			return nil, typeErr("ARRAY_DISTINCT", "argument is "+args[0].Kind().String())
		}
		return value.Array(distinct(elems)), nil
	}))
	// TO_ARRAY imposes an (arbitrary but deterministic) order on a bag;
	// arrays pass through. It is how ORDER-BY-less results can be
	// compared stably.
	r.Register("TO_ARRAY", 1, 1, scalar("TO_ARRAY", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		switch c := args[0].(type) {
		case value.Array:
			return c, nil
		case value.Bag:
			out := make(value.Array, len(c))
			copy(out, c)
			value.SortValues(out)
			return out, nil
		}
		return value.Array{args[0]}, nil
	}))
	r.Register("TO_BAG", 1, 1, scalar("TO_BAG", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		switch c := args[0].(type) {
		case value.Bag:
			return c, nil
		case value.Array:
			out := make(value.Bag, len(c))
			copy(out, c)
			return out, nil
		}
		return value.Bag{args[0]}, nil
	}))
	// ATTRIBUTE_NAMES returns the attribute names of a tuple as an array
	// of strings, supporting schema-discovery queries.
	r.Register("ATTRIBUTE_NAMES", 1, 1, scalar("ATTRIBUTE_NAMES", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		t, ok := args[0].(*value.Tuple)
		if !ok {
			return nil, typeErr("ATTRIBUTE_NAMES", "argument is "+args[0].Kind().String())
		}
		out := make(value.Array, 0, t.Len())
		for _, name := range t.Names() {
			out = append(out, value.String(name))
		}
		return out, nil
	}))
}

func distinct(elems []value.Value) []value.Value {
	seen := make(map[string]bool, len(elems))
	out := make([]value.Value, 0, len(elems))
	for _, e := range elems {
		k := value.Key(e)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// registerInternal registers the functions the rewriter targets: subquery
// coercions and DISTINCT argument folding.
func (r *Registry) registerInternal() {
	// $COERCE_SCALAR implements SQL's coercion of a (sugar) SELECT
	// subquery in scalar position: a collection of exactly one tuple
	// with one attribute becomes that attribute's value; an empty
	// collection becomes NULL; anything else is a type fault
	// (cardinality violation).
	r.Register("$COERCE_SCALAR", 1, 1, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		elems, ok := value.Elements(args[0])
		if !ok {
			return args[0], nil
		}
		switch len(elems) {
		case 0:
			return value.Null, nil
		case 1:
			t, ok := elems[0].(*value.Tuple)
			if !ok {
				return elems[0], nil
			}
			if t.Len() != 1 {
				return nil, typeErr("scalar subquery", "row has more than one column")
			}
			return t.Values()[0], nil
		default:
			return nil, typeErr("scalar subquery", "more than one row")
		}
	})
	// $COERCE_COLL turns a sugar SELECT subquery used as an IN operand
	// into the collection of its single column.
	r.Register("$COERCE_COLL", 1, 1, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		elems, ok := value.Elements(args[0])
		if !ok {
			return args[0], nil
		}
		out := make(value.Bag, 0, len(elems))
		for _, e := range elems {
			t, ok := e.(*value.Tuple)
			if !ok {
				out = append(out, e)
				continue
			}
			if t.Len() != 1 {
				return nil, typeErr("IN subquery", "row has more than one column")
			}
			out = append(out, t.Values()[0])
		}
		return out, nil
	})
	// $MERGE builds the SELECT * output tuple from (name, value) pairs:
	// tuple values splice their attributes in, non-tuple values keep
	// their variable's name. An empty name (from expr.*) requires a
	// tuple; anything else is a type fault (skipped in permissive mode).
	r.Register("$MERGE", 0, -1, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		out := value.EmptyTuple()
		for i := 0; i+1 < len(args); i += 2 {
			name, ok := args[i].(value.String)
			if !ok {
				return nil, typeErr("SELECT *", "internal: non-string merge name")
			}
			v := args[i+1]
			if t, ok := v.(*value.Tuple); ok {
				vals := t.Values()
				for j, name := range t.Names() {
					out.Put(name, vals[j])
				}
				continue
			}
			if name == "" {
				if ctx.Mode == eval.StopOnError {
					return nil, typeErr("SELECT expr.*", "expression is "+v.Kind().String()+", not a tuple")
				}
				continue
			}
			out.Put(string(name), v)
		}
		return out, nil
	})
	// $AGG reads a streamed aggregate's slot (see plan/streamagg.go): the
	// slot's value, or the fault its fold latched — raised here, where the
	// COLL_* call it replaces would have raised it. A type fault is handed
	// out as a copy because the evaluator stamps the call position into it.
	r.Register("$AGG", 1, 1, func(_ *eval.Context, args []value.Value) (value.Value, error) {
		f, ok := args[0].(eval.AggFault)
		if !ok {
			return args[0], nil
		}
		if te, ok := f.Err.(*eval.TypeError); ok {
			c := *te
			return nil, &c
		}
		return nil, f.Err
	})
	// $DISTINCT deduplicates a collection by grouping equality; the
	// rewriter wraps aggregate DISTINCT arguments with it.
	r.Register("$DISTINCT", 1, 1, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		elems, ok := value.Elements(args[0])
		if !ok {
			if value.IsAbsent(args[0]) {
				return args[0], nil
			}
			return nil, typeErr("DISTINCT", "argument is "+args[0].Kind().String())
		}
		switch args[0].(type) {
		case value.Array:
			return value.Array(distinct(elems)), nil
		default:
			return value.Bag(distinct(elems)), nil
		}
	})
}
