package funcs

import (
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"

	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

func init() {
	extendedRegistrations = append(extendedRegistrations,
		(*Registry).registerExtendedNumerics,
		(*Registry).registerExtendedStrings,
		(*Registry).registerTupleFunctions,
		(*Registry).registerVariadicExtremes,
	)
}

// extendedRegistrations lets extension files hook registration without
// touching registerAll's body.
var extendedRegistrations []func(*Registry)

func (r *Registry) registerExtendedNumerics() {
	float1 := func(op string, f func(float64) (float64, bool)) eval.Func {
		return scalar(op, func(_ *eval.Context, args []value.Value) (value.Value, error) {
			x, ok := value.AsFloat(args[0])
			if !ok {
				return nil, typeErr(op, "argument is "+args[0].Kind().String())
			}
			out, ok := f(x)
			if !ok {
				return nil, typeErr(op, "argument out of domain")
			}
			return value.Float(out), nil
		})
	}
	r.Register("EXP", 1, 1, float1("EXP", func(x float64) (float64, bool) { return math.Exp(x), true }))
	r.Register("LN", 1, 1, float1("LN", func(x float64) (float64, bool) {
		if x <= 0 {
			return 0, false
		}
		return math.Log(x), true
	}))
	r.Register("LOG10", 1, 1, float1("LOG10", func(x float64) (float64, bool) {
		if x <= 0 {
			return 0, false
		}
		return math.Log10(x), true
	}))
	r.Register("TRUNC", 1, 1, scalar("TRUNC", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		if i, ok := args[0].(value.Int); ok {
			return i, nil
		}
		f, ok := value.AsFloat(args[0])
		if !ok {
			return nil, typeErr("TRUNC", "argument is "+args[0].Kind().String())
		}
		return value.Float(math.Trunc(f)), nil
	}))
}

func (r *Registry) registerExtendedStrings() {
	r.Register("SPLIT", 2, 2, scalar("SPLIT", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		s, ok1 := args[0].(value.String)
		sep, ok2 := args[1].(value.String)
		if !ok1 || !ok2 {
			return nil, typeErr("SPLIT", "arguments must be strings")
		}
		parts := strings.Split(string(s), string(sep))
		out := make(value.Array, len(parts))
		for i, p := range parts {
			out[i] = value.String(p)
		}
		return out, nil
	}))
	r.Register("REVERSE", 1, 1, scalar("REVERSE", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		switch x := args[0].(type) {
		case value.String:
			runes := []rune(string(x))
			for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
				runes[i], runes[j] = runes[j], runes[i]
			}
			return value.String(runes), nil
		case value.Array:
			out := make(value.Array, len(x))
			for i, e := range x {
				out[len(x)-1-i] = e
			}
			return out, nil
		}
		return nil, typeErr("REVERSE", "argument is "+args[0].Kind().String())
	}))
	r.Register("LPAD", 2, 3, padFunc("LPAD", true))
	r.Register("RPAD", 2, 3, padFunc("RPAD", false))
	r.Register("REGEXP_CONTAINS", 2, 2, regexpFunc("REGEXP_CONTAINS",
		func(re *regexp.Regexp, s string) (value.Value, error) {
			return value.Bool(re.MatchString(s)), nil
		}))
	r.Register("REGEXP_EXTRACT", 2, 2, regexpFunc("REGEXP_EXTRACT",
		func(re *regexp.Regexp, s string) (value.Value, error) {
			m := re.FindStringSubmatch(s)
			switch {
			case m == nil:
				return value.Null, nil
			case len(m) > 1:
				return value.String(m[1]), nil
			default:
				return value.String(m[0]), nil
			}
		}))
	r.Register("REGEXP_REPLACE", 3, 3, scalar("REGEXP_REPLACE", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		s, ok1 := args[0].(value.String)
		pat, ok2 := args[1].(value.String)
		repl, ok3 := args[2].(value.String)
		if !ok1 || !ok2 || !ok3 {
			return nil, typeErr("REGEXP_REPLACE", "arguments must be strings")
		}
		re, err := compileRegexp(string(pat))
		if err != nil {
			return nil, typeErr("REGEXP_REPLACE", "invalid pattern: "+err.Error())
		}
		return value.String(re.ReplaceAllString(string(s), string(repl))), nil
	}))
}

func padFunc(op string, left bool) eval.Func {
	return scalar(op, func(_ *eval.Context, args []value.Value) (value.Value, error) {
		s, ok := args[0].(value.String)
		if !ok {
			return nil, typeErr(op, "first argument is "+args[0].Kind().String())
		}
		n, ok := value.AsInt(args[1])
		if !ok || n < 0 {
			return nil, typeErr(op, "length must be a non-negative integer")
		}
		pad := " "
		if len(args) == 3 {
			p, ok := args[2].(value.String)
			if !ok || len(p) == 0 {
				return nil, typeErr(op, "pad must be a non-empty string")
			}
			pad = string(p)
		}
		runes := []rune(string(s))
		if int64(len(runes)) >= n {
			return value.String(runes[:n]), nil
		}
		fill := []rune(strings.Repeat(pad, int(n)))[:n-int64(len(runes))]
		if left {
			return value.String(string(fill) + string(s)), nil
		}
		return value.String(string(s) + string(fill)), nil
	})
}

// regexpCache memoizes compiled patterns across rows.
var regexpCache sync.Map // string -> *regexp.Regexp

func compileRegexp(pat string) (*regexp.Regexp, error) {
	if re, ok := regexpCache.Load(pat); ok {
		return re.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	regexpCache.Store(pat, re)
	return re, nil
}

func regexpFunc(op string, apply func(*regexp.Regexp, string) (value.Value, error)) eval.Func {
	return scalar(op, func(_ *eval.Context, args []value.Value) (value.Value, error) {
		s, ok1 := args[0].(value.String)
		pat, ok2 := args[1].(value.String)
		if !ok1 || !ok2 {
			return nil, typeErr(op, "arguments must be strings")
		}
		re, err := compileRegexp(string(pat))
		if err != nil {
			return nil, typeErr(op, "invalid pattern: "+err.Error())
		}
		return apply(re, string(s))
	})
}

func (r *Registry) registerTupleFunctions() {
	// OBJECT_MERGE combines tuples left to right (later attributes win).
	r.Register("OBJECT_MERGE", 2, -1, scalar("OBJECT_MERGE", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		out := value.EmptyTuple()
		for _, a := range args {
			t, ok := a.(*value.Tuple)
			if !ok {
				return nil, typeErr("OBJECT_MERGE", "argument is "+a.Kind().String())
			}
			vals := t.Values()
			for i, name := range t.Names() {
				out.Set(name, vals[i])
			}
		}
		return out, nil
	}))
	// OBJECT_REMOVE drops the named attributes.
	r.Register("OBJECT_REMOVE", 2, -1, scalar("OBJECT_REMOVE", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		t, ok := args[0].(*value.Tuple)
		if !ok {
			return nil, typeErr("OBJECT_REMOVE", "first argument is "+args[0].Kind().String())
		}
		drop := map[string]bool{}
		for _, a := range args[1:] {
			name, ok := a.(value.String)
			if !ok {
				return nil, typeErr("OBJECT_REMOVE", "attribute names must be strings")
			}
			drop[string(name)] = true
		}
		out := value.EmptyTuple()
		vals := t.Values()
		for i, name := range t.Names() {
			if !drop[name] {
				out.Put(name, vals[i])
			}
		}
		return out, nil
	}))
	// OBJECT_VALUES mirrors ATTRIBUTE_NAMES.
	r.Register("OBJECT_VALUES", 1, 1, scalar("OBJECT_VALUES", func(_ *eval.Context, args []value.Value) (value.Value, error) {
		t, ok := args[0].(*value.Tuple)
		if !ok {
			return nil, typeErr("OBJECT_VALUES", "argument is "+args[0].Kind().String())
		}
		return value.Array(slices.Clone(t.Values())), nil
	}))
}

func (r *Registry) registerVariadicExtremes() {
	variadic := func(op string, wantMax bool) eval.Func {
		return scalar(op, func(_ *eval.Context, args []value.Value) (value.Value, error) {
			best := args[0]
			for _, a := range args[1:] {
				c := value.Compare(a, best)
				if (wantMax && c > 0) || (!wantMax && c < 0) {
					best = a
				}
			}
			return best, nil
		})
	}
	r.Register("GREATEST", 1, -1, variadic("GREATEST", true))
	r.Register("LEAST", 1, -1, variadic("LEAST", false))
}
