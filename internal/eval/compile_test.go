package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/parser"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// The compiled-expression contract: for every expression, under every
// (typing mode × compat) configuration, Compile's closure returns
// exactly what Eval returns — same value rendering, same error text.
// The closures delegate to the interpreter's value-level helpers, so
// these tests are the guard that keeps that delegation honest as either
// side evolves.

// identityFuncs is a minimal function source (testFuncs comes from
// expr_test.go) for exercising the compiled call path without
// importing internal/funcs, which would invert the package layering.
func identityFuncs() FuncSource {
	return testFuncs{
		"LEN": {Name: "LEN", MinArgs: 1, MaxArgs: 1, Fn: func(ctx *Context, args []value.Value) (value.Value, error) {
			s, ok := args[0].(value.String)
			if !ok {
				return nil, &TypeError{Op: "LEN", Detail: "argument is " + args[0].Kind().String()}
			}
			return value.Int(int64(len(s))), nil
		}},
		"PICK": {Name: "PICK", MinArgs: 2, MaxArgs: -1, Fn: func(ctx *Context, args []value.Value) (value.Value, error) {
			return args[len(args)-1], nil
		}},
	}
}

// identityEnv binds the variables the generated expressions reference.
func identityEnv(t testing.TB) *Env {
	t.Helper()
	env := NewEnv()
	bind := func(name, src string) {
		v, err := sion.Parse(src)
		if err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
		env.Bind(name, v)
	}
	bind("x", "41")
	bind("y", "2.5")
	bind("s", "'hello world'")
	bind("flag", "true")
	bind("t", "{'a': 1, 'b': {'c': 'deep'}, 'arr': [10, 20, 30]}")
	bind("arr", "[1, 2, 3]")
	bind("coll", "{{ 4, 'five', null }}")
	return env
}

// checkIdentity parses src, runs it through the interpreter and the
// compiled closure under the given configuration, and requires
// identical outcomes.
func checkIdentity(t *testing.T, src string, mode TypingMode, compat bool) {
	t.Helper()
	e, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	fs := identityFuncs()
	env := identityEnv(t)
	ictx := &Context{Mode: mode, Compat: compat, Funcs: fs}
	cctx := &Context{Mode: mode, Compat: compat, Funcs: fs}
	want, werr := Eval(ictx, env, e)
	c := Compile(e, CompileOpts{Mode: mode, Compat: compat, Funcs: fs})
	got, gerr := c(cctx, env)
	if (werr == nil) != (gerr == nil) {
		t.Errorf("%q (mode=%v compat=%v): error behavior diverges:\n  interpreted err=%v\n  compiled    err=%v",
			src, mode, compat, werr, gerr)
		return
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Errorf("%q (mode=%v compat=%v): error text diverges:\n  interpreted %v\n  compiled    %v",
				src, mode, compat, werr, gerr)
		}
		return
	}
	if want.Kind() != got.Kind() || want.String() != got.String() {
		t.Errorf("%q (mode=%v compat=%v): value diverges:\n  interpreted %s (%v)\n  compiled    %s (%v)",
			src, mode, compat, want, want.Kind(), got, got.Kind())
	}
}

// identityConfigs is the mode × compat matrix every expression runs
// under.
var identityConfigs = []struct {
	mode   TypingMode
	compat bool
}{
	{Permissive, false},
	{Permissive, true},
	{StopOnError, false},
	{StopOnError, true},
}

// TestCompiledEvalIdentityTable pins the forms the compiler specializes:
// every compiled node kind, its absent-input behavior, and its error
// text, including the deliberate fault cases.
func TestCompiledEvalIdentityTable(t *testing.T) {
	exprs := []string{
		// Literals and references.
		`42`, `3.25`, `'lit'`, `true`, `null`, `missing`,
		`x`, `s`, `unbound_name`,
		// Navigation and indexing.
		`t.a`, `t.b.c`, `t.nope`, `t.nope.deeper`, `x.field`,
		`arr[0]`, `arr[2]`, `arr[9]`, `arr[-1]`, `t.arr[1]`, `t['a']`, `arr['zero']`, `s[0]`,
		// Arithmetic, concat, unary.
		`x + 1`, `x - y`, `x * 2`, `x / 0`, `x % 7`, `-x`, `-s`, `x + s`, `x + missing`, `x + null`,
		`s || ' there'`, `s || x`, `s || missing`,
		// Comparisons and logic.
		`x = 41`, `x <> 41`, `x < y`, `x >= 40`, `x = s`, `x = null`, `x = missing`,
		`flag AND x > 10`, `flag OR s`, `NOT flag`, `NOT s`, `x > 10 AND x < 100 OR x = 42`,
		// LIKE: literal pattern (specialized), dynamic pattern, escapes,
		// malformed pattern, non-string operands.
		`s LIKE 'hello%'`, `s LIKE '%world'`, `s NOT LIKE 'h_llo%'`,
		`s LIKE s`, `s LIKE 'hel' || '%'`, `x LIKE 'a%'`, `s LIKE x`,
		`s LIKE '100!%' ESCAPE '!'`, `s LIKE '100!%' ESCAPE '!!'`, `s LIKE 'a!' ESCAPE '!'`,
		`missing LIKE 'a%'`, `null LIKE 'a%'`,
		// BETWEEN / IN / quantified.
		`x BETWEEN 40 AND 50`, `x NOT BETWEEN 40 AND 50`, `x BETWEEN s AND 50`, `x BETWEEN null AND 50`,
		`x IN [41, 2, 3]`, `x NOT IN [1, 2]`, `x IN [null, 41]`, `x IN [null, 2]`, `x IN arr`, `x IN s`, `'five' IN coll`,
		`x = ANY arr`, `x > ALL arr`, `x = ANY s`, `missing = ANY arr`,
		// IS predicates.
		`null IS NULL`, `missing IS NULL`, `missing IS MISSING`, `x IS NOT NULL`,
		`flag IS UNKNOWN`, `null IS UNKNOWN`, `x IS UNKNOWN`, `t.nope IS MISSING`,
		// CASE, searched and simple.
		`CASE WHEN x > 100 THEN 'hi' WHEN x > 10 THEN 'mid' ELSE 'lo' END`,
		`CASE WHEN x > 100 THEN 'hi' END`,
		`CASE WHEN s THEN 'bad' ELSE 'else' END`,
		`CASE x WHEN 41 THEN 'yes' WHEN 42 THEN 'no' END`,
		`CASE t.nope WHEN 1 THEN 'one' ELSE 'none' END`,
		// Constructors, including absent-value normalization.
		`{'a': x, 'b': s || '!', 'c': missing}`,
		`[x, missing, null, t.nope]`,
		`{{ x, missing, s }}`,
		// Function calls: hit, arity error, unknown function, permissive
		// argument fault.
		`LEN(s)`, `LEN(x)`, `LEN()`, `LEN('a', 'b')`, `NOPE(1)`, `PICK(x, s, t.a)`,
		// Subquery fallback: no runner is installed in this package, so
		// both paths must fail with the same error.
		`EXISTS (SELECT VALUE v FROM arr AS v WHERE v > 1)`,
		`(SELECT VALUE v FROM arr AS v)`,
	}
	for _, src := range exprs {
		for _, cfg := range identityConfigs {
			checkIdentity(t, src, cfg.mode, cfg.compat)
		}
	}
}

// genExpr emits a random expression over the identityEnv bindings:
// terminals at depth 0, every compiled form above it. The grammar only
// emits parseable strings; faults (unbound names, mistyped operands,
// absent inputs) are reached through the bound data, not through
// syntax errors.
func genExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		switch rng.Intn(12) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(100))
		case 1:
			return fmt.Sprintf("%d.5", rng.Intn(10))
		case 2:
			return "'w" + string(rune('a'+rng.Intn(8))) + "'"
		case 3:
			return "true"
		case 4:
			return "null"
		case 5:
			return "missing"
		case 6:
			return "x"
		case 7:
			return "y"
		case 8:
			return "s"
		case 9:
			return "t"
		case 10:
			return "arr"
		default:
			return "flag"
		}
	}
	sub := func() string { return genExpr(rng, depth-1) }
	switch rng.Intn(24) {
	case 0:
		ops := []string{"+", "-", "*", "/", "%"}
		return "(" + sub() + " " + ops[rng.Intn(len(ops))] + " " + sub() + ")"
	case 1:
		return "(" + sub() + " || " + sub() + ")"
	case 2:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return "(" + sub() + " " + ops[rng.Intn(len(ops))] + " " + sub() + ")"
	case 3:
		return "(" + sub() + " AND " + sub() + ")"
	case 4:
		return "(" + sub() + " OR " + sub() + ")"
	case 5:
		return "(NOT (" + sub() + "))"
	case 6:
		return "-(" + sub() + ")"
	case 7:
		pats := []string{"'h%'", "'%ld'", "'w_r%'", "'100!%' ESCAPE '!'"}
		return "(" + sub() + " LIKE " + pats[rng.Intn(len(pats))] + ")"
	case 8:
		return "(" + sub() + " NOT LIKE (" + sub() + "))"
	case 9:
		return "(" + sub() + " BETWEEN " + sub() + " AND " + sub() + ")"
	case 10:
		return "(" + sub() + " IN [" + sub() + ", " + sub() + "])"
	case 11:
		return "(" + sub() + " IN arr)"
	case 12:
		whats := []string{"NULL", "NOT NULL", "MISSING", "NOT MISSING", "UNKNOWN"}
		return "(" + sub() + " IS " + whats[rng.Intn(len(whats))] + ")"
	case 13:
		return "CASE WHEN " + sub() + " THEN " + sub() + " ELSE " + sub() + " END"
	case 14:
		return "CASE " + sub() + " WHEN " + sub() + " THEN " + sub() + " END"
	case 15:
		return "{'k1': " + sub() + ", 'k2': " + sub() + "}"
	case 16:
		return "[" + sub() + ", " + sub() + "]"
	case 17:
		return "{{ " + sub() + ", " + sub() + " }}"
	case 18:
		paths := []string{"t.a", "t.b.c", "t.nope", "t.arr[1]", "arr[0]", "arr[5]", "t['a']"}
		return paths[rng.Intn(len(paths))]
	case 19:
		quants := []string{"= ANY", "<> ANY", "> ALL", "<= ALL"}
		return "(" + sub() + " " + quants[rng.Intn(len(quants))] + " arr)"
	case 20:
		return "LEN(" + sub() + ")"
	case 21:
		return "PICK(" + sub() + ", " + sub() + ")"
	case 22:
		return "unbound_name"
	default:
		return "(" + sub() + ")"
	}
}

// TestCompiledEvalIdentityProperty: randomized expressions over every
// compiled form, each checked under the full mode × compat matrix.
func TestCompiledEvalIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20240817))
	for i := 0; i < 400; i++ {
		src := genExpr(rng, 1+rng.Intn(3))
		for _, cfg := range identityConfigs {
			checkIdentity(t, src, cfg.mode, cfg.compat)
		}
		if t.Failed() && i > 20 {
			t.Fatalf("stopping after expression %d; earlier failures above", i)
		}
	}
}

// TestCompileNilAndFallback pins the compiler's edges: Compile(nil) is
// nil (optional clauses stay optional), CompileAll preserves nil-ness,
// a compilable expression compiles, and an unknown operator compiles to
// a closure returning the interpreter's error rather than failing (or
// entering the interpreter).
func TestCompileNilAndFallback(t *testing.T) {
	if Compile(nil, CompileOpts{}) != nil {
		t.Error("Compile(nil) must return nil")
	}
	if CompileAll(nil, CompileOpts{}) != nil {
		t.Error("CompileAll(nil) must return nil")
	}
	e, err := parser.Parse(`x + 1`)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(e, CompileOpts{})
	if c == nil {
		t.Fatal("Compile returned nil for a compilable expression")
	}
	env := identityEnv(t)
	v, err := c(&Context{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "42" {
		t.Errorf("compiled x+1 = %s, want 42", got)
	}
	one := &ast.Literal{Val: value.Int(1)}
	for _, bad := range []ast.Expr{&ast.Unary{Op: "~", Operand: one}, &ast.Binary{Op: "<=>", L: one, R: one}} {
		_, werr := Eval(&Context{}, env, bad)
		_, gerr := Compile(bad, CompileOpts{})(&Context{}, env)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("unknown operator: interpreted err=%v, compiled err=%v", werr, gerr)
		}
	}
}

// TestCompiledLiteralPatternCache: the LIKE literal-pattern
// specialization must agree with the interpreter on strict-mode error
// text for malformed patterns, which is the path where a compile-time
// verdict is replayed per row.
func TestCompiledMalformedLikePattern(t *testing.T) {
	for _, cfg := range identityConfigs {
		checkIdentity(t, `s LIKE 'abc!' ESCAPE '!'`, cfg.mode, cfg.compat)
		checkIdentity(t, `s LIKE 'a' ESCAPE 'xy'`, cfg.mode, cfg.compat)
	}
}

// sanity: the battery corpus parses — a generator regression should
// fail loudly here, not silently skip coverage.
func TestIdentityCorpusParses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		src := genExpr(rng, 2)
		if _, err := parser.Parse(src); err != nil {
			t.Fatalf("generated expression does not parse: %q: %v", src, err)
		}
	}
	if !strings.Contains(genExpr(rand.New(rand.NewSource(1)), 0), "") {
		t.Fatal("unreachable")
	}
}

// TestTupleCtorAllocatesOnce: a projected row costs its Tuple header and
// one attribute slice sized for the constructor's fields — two
// allocations for two columns, compiled or interpreted, not a third from
// growing the slice.
func TestTupleCtorAllocatesOnce(t *testing.T) {
	e, err := parser.Parse(`{'a': t.a, 'n': s}`)
	if err != nil {
		t.Fatal(err)
	}
	env := identityEnv(t)
	ctx := &Context{}
	c := Compile(e, CompileOpts{})
	for name, run := range map[string]func(){
		"compiled":    func() { _, _ = c(ctx, env) },
		"interpreted": func() { _, _ = Eval(ctx, env, e) },
	} {
		if n := testing.AllocsPerRun(100, run); n > 2 {
			t.Errorf("%s two-field projection: %.0f allocations, want 2", name, n)
		}
	}
}

// TestPermissiveFaultBuildsNoMessage: a permissive type fault yields
// MISSING without formatting the detail it would raise under stop-on-error
// — comparing a string salary with 0 allocates nothing, compiled or
// interpreted — while the stop-on-error message stays byte-identical.
func TestPermissiveFaultBuildsNoMessage(t *testing.T) {
	e, err := parser.Parse(`e.salary >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Bind("e", value.NewTuple(value.Field{Name: "salary", Value: value.String("n/a")}))
	for _, mode := range []TypingMode{Permissive, StopOnError} {
		ctx := &Context{Mode: mode}
		c := Compile(e, CompileOpts{Mode: mode})
		for name, run := range map[string]func() (value.Value, error){
			"compiled":    func() (value.Value, error) { return c(ctx, env) },
			"interpreted": func() (value.Value, error) { return Eval(ctx, env, e) },
		} {
			v, err := run()
			if mode == StopOnError {
				if want := "type error at 1:10 in >=: cannot order string and integer"; err == nil || err.Error() != want {
					t.Errorf("%s strict: got (%v, %v), want error %q", name, v, err, want)
				}
				continue
			}
			if err != nil || v.Kind() != value.KindMissing {
				t.Fatalf("%s permissive: got (%v, %v), want MISSING", name, v, err)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = run() }); n != 0 {
				t.Errorf("%s permissive fault: %.0f allocations, want 0", name, n)
			}
		}
	}
}

// TestCompiledQueryExpressionsIdentity: WITH and the set operations
// compile over compiled operands and share the bag algebra and the
// nesting-depth charge with the interpreter: the same value or error
// text in every configuration, and the same depth error under a budget
// one level too small.
func TestCompiledQueryExpressionsIdentity(t *testing.T) {
	for _, src := range []string{
		`[1, 2, 2, 3, 'x'] UNION {{2, 3, 4, 1.0}}`,
		`[1, 2, 2, 3, 'x'] UNION ALL {{2, 3, 4, 1.0}}`,
		`[1, 2, 2, 3, 'x'] INTERSECT {{2, 3, 3, 'x'}}`,
		`[1, 2, 2, 3, 'x'] INTERSECT ALL {{2, 2, 3, 3}}`,
		`[1, 2, 2, 3, 'x'] EXCEPT {{2, 'x'}}`,
		`[1, 2, 2, 3, 'x'] EXCEPT ALL {{2, 'x'}}`,
		`[1, 2] UNION x`,
		`t.nope UNION [1]`,
		`WITH a AS (x + 1), b AS (a * 2) a + b`,
		`WITH a AS (s || 1) a`,
	} {
		for _, cfg := range identityConfigs {
			checkIdentity(t, src, cfg.mode, cfg.compat)
		}
	}
	e, err := parser.Parse(`WITH a AS ([1] UNION [2]) a`)
	if err != nil {
		t.Fatal(err)
	}
	env := identityEnv(t)
	for _, depth := range []int{1, 2} {
		ictx := &Context{Gov: NewGovernor(Limits{MaxDepth: depth})}
		cctx := &Context{Gov: NewGovernor(Limits{MaxDepth: depth})}
		want, werr := Eval(ictx, env, e)
		got, gerr := Compile(e, CompileOpts{})(cctx, env)
		if fmt.Sprint(want, werr) != fmt.Sprint(got, gerr) || (depth == 1) != (werr != nil) {
			t.Errorf("MaxDepth %d: interpreted (%v, %v), compiled (%v, %v)", depth, want, werr, got, gerr)
		}
		if ictx.Depth != 0 || cctx.Depth != 0 {
			t.Errorf("MaxDepth %d: depth not restored: interpreted %d, compiled %d", depth, ictx.Depth, cctx.Depth)
		}
	}
}
