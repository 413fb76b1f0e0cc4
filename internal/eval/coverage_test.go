package eval

import (
	"testing"

	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

func TestIndexingEdgeCases(t *testing.T) {
	ctx := newTestCtx(false, Permissive)
	vars := map[string]string{
		"t":   `{'a': [10, 20], 'm': {'k': 1}}`,
		"arr": `[1, 2, 3]`,
	}
	cases := []struct {
		src, want string
	}{
		{"arr[1]", "2"},
		{"arr[1.0]", "2"},       // integral float index works
		{"arr['x']", "missing"}, // non-numeric index on array
		{"arr[null]", "null"},   // absent index propagates
		{"arr[missing]", "missing"},
		{"arr[1.5]", "missing"}, // fractional index
		{"t.m[5]", "missing"},   // numeric index on tuple
		{"t.m[null]", "null"},
		{"t.nope[0]", "missing"}, // indexing MISSING base
		{"5[0]", "missing"},      // indexing a scalar
	}
	for _, c := range cases {
		got := mustEval(t, ctx, c.src, vars)
		if !value.Equivalent(got, sion.MustParse(c.want)) {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
	strict := newTestCtx(false, StopOnError)
	for _, src := range []string{"arr['x']", "5[0]", "t.m[5]"} {
		if _, err := evalStr(t, strict, src, vars); err == nil {
			t.Errorf("%s should error in strict mode", src)
		}
	}
}

func TestNullIndexOnNullBase(t *testing.T) {
	ctx := newTestCtx(false, Permissive)
	got := mustEval(t, ctx, "t.n[0]", map[string]string{"t": `{'n': null}`})
	if got.Kind() != value.KindNull {
		t.Errorf("null[0] = %s, want null", got)
	}
}

func TestTypingModeString(t *testing.T) {
	if Permissive.String() != "permissive" || StopOnError.String() != "stop-on-error" {
		t.Error("mode names wrong")
	}
}

func TestErrorMessages(t *testing.T) {
	te := &TypeError{Op: "test", Detail: "boom"}
	if te.Error() == "" {
		t.Error("TypeError message empty")
	}
	ne := &NameError{Name: "ghost"}
	if ne.Error() == "" {
		t.Error("NameError message empty")
	}
}

func TestEnvNames(t *testing.T) {
	env := NewEnv()
	env.Bind("a", value.Int(1))
	env.Bind("b", value.Int(2))
	env.Bind("a", value.Int(3)) // rebind replaces
	names := env.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestBindNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("binding nil must panic")
		}
	}()
	NewEnv().Bind("x", nil)
}

func TestConcatAndUnaryEdge(t *testing.T) {
	ctx := newTestCtx(false, Permissive)
	cases := []struct{ src, want string }{
		{"'a' || 'b' || 'c'", "'abc'"},
		{"'a' || 5", "missing"},
		{"5 || 'a'", "missing"},
		{"null || 'a'", "null"},
		{"missing || 'a'", "missing"},
		{"-null", "null"},
		{"-missing", "missing"},
		{"-'x'", "missing"},
		{"+5", "5"},
		{"NOT 5", "missing"}, // NOT over non-boolean
	}
	for _, c := range cases {
		got := mustEval(t, ctx, c.src, nil)
		if !value.Equivalent(got, sion.MustParse(c.want)) {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestLogicalMistypedOperands(t *testing.T) {
	ctx := newTestCtx(false, Permissive)
	for _, src := range []string{"5 AND true", "true AND 5", "5 OR false", "false OR 5"} {
		got := mustEval(t, ctx, src, nil)
		if got.Kind() != value.KindMissing {
			t.Errorf("%s = %s, want MISSING (mistyped operand)", src, got)
		}
	}
	// But a short-circuit-decided result never looks at the right side.
	if got := mustEval(t, ctx, "false AND 5", nil); got != value.False {
		t.Errorf("false AND 5 = %s, want false", got)
	}
	if got := mustEval(t, ctx, "true OR 5", nil); got != value.True {
		t.Errorf("true OR 5 = %s, want true", got)
	}
}

func TestLikeEscapeValidation(t *testing.T) {
	ctx := newTestCtx(false, Permissive)
	// Multi-character escape strings are malformed.
	if got := mustEval(t, ctx, "'a' LIKE 'a' ESCAPE 'xy'", nil); got.Kind() != value.KindMissing {
		t.Errorf("bad escape = %s, want MISSING", got)
	}
	// Escape at pattern end is malformed.
	if got := mustEval(t, ctx, "'a' LIKE 'a!' ESCAPE '!'", nil); got.Kind() != value.KindMissing {
		t.Errorf("trailing escape = %s, want MISSING", got)
	}
	// Escaping a non-wildcard is malformed.
	if got := mustEval(t, ctx, "'ab' LIKE 'a!b' ESCAPE '!'", nil); got.Kind() != value.KindMissing {
		t.Errorf("escape of literal = %s, want MISSING", got)
	}
	// Escaping the escape char itself is fine.
	if got := mustEval(t, ctx, "'a!' LIKE 'a!!' ESCAPE '!'", nil); got != value.True {
		t.Errorf("doubled escape = %s, want true", got)
	}
}
