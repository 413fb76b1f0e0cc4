package sqlpp

import (
	"runtime"
	"strings"
	"testing"

	"sqlpp/internal/types"
	"sqlpp/internal/value"
)

func TestEngineRegistration(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("a", "{{1}}"); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("ns.b", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "ns.b" {
		t.Errorf("Names = %v", names)
	}
	if v, ok := db.Lookup("ns.b"); !ok || v != value.Int(2) {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
	db.Drop("a")
	if _, ok := db.Lookup("a"); ok {
		t.Error("Drop failed")
	}
	if err := db.RegisterSION("bad", "{{"); err == nil {
		t.Error("bad object notation should fail registration")
	}
}

func TestEngineFormatLoaders(t *testing.T) {
	db := New(nil)
	if err := db.RegisterJSON("j", strings.NewReader(`[{"a":1},{"a":2}]`)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterJSONLines("jl", strings.NewReader("{\"a\":1}\n{\"a\":2}\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterCSV("c", strings.NewReader("a\n1\n2\n")); err != nil {
		t.Fatal(err)
	}
	// CBOR: [{"a":1},{"a":2}] as 0x82 a1 61 61 01 a1 61 61 02.
	cbor := []byte{0x82, 0xa1, 0x61, 'a', 0x01, 0xa1, 0x61, 'a', 0x02}
	if err := db.RegisterCBOR("cb", cbor); err != nil {
		t.Fatal(err)
	}
	sum := func(name string) value.Value {
		return db.MustQuery("SELECT VALUE SUM(r.a) FROM " + name + " AS r")
	}
	want := MustParseValue("{{3}}")
	for _, name := range []string{"j", "jl", "c", "cb"} {
		if got := sum(name); !value.Equivalent(got, want) {
			t.Errorf("sum over %s = %s, want %s", name, got, want)
		}
	}
}

func TestPreparedCore(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "{{ {'a': 1} }}"); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("SELECT r.a FROM t AS r")
	if err != nil {
		t.Fatal(err)
	}
	core := p.Core()
	if !strings.Contains(core, "SELECT VALUE {'a': r.a}") {
		t.Errorf("Core() = %s", core)
	}
	v, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equivalent(v, MustParseValue("{{ {'a': 1} }}")) {
		t.Errorf("Exec = %s", v)
	}
}

// TestGroupByEmptyKeys: implicit grouping's Core is GROUP BY (), which
// re-prepares, and one group over empty input is still one row.
func TestGroupByEmptyKeys(t *testing.T) {
	db := New(nil)
	v, err := db.Query("SELECT VALUE COLL_COUNT(g) FROM [] AS x GROUP BY () GROUP AS g")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "{{0}}" {
		t.Errorf("one group over no rows = %s, want {{0}}", v)
	}
	p, err := db.Prepare("SELECT COUNT(*) AS n FROM [1, 2] AS x")
	if err != nil {
		t.Fatal(err)
	}
	core := p.Core()
	if !strings.Contains(core, "GROUP BY () GROUP AS") {
		t.Fatalf("Core() = %s", core)
	}
	again, err := db.Query(core)
	if err != nil || again.String() != "{{{'n': 2}}}" {
		t.Errorf("Core %s answers %v, %v", core, again, err)
	}
}

func TestWithOptionsSharesCatalog(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "{{ {'x': 'bad'} }}"); err != nil {
		t.Fatal(err)
	}
	strict := db.WithOptions(Options{StopOnError: true})
	if _, err := strict.Query("SELECT VALUE 2 * r.x FROM t AS r"); err == nil {
		t.Error("strict view should fail on the shared data")
	}
	// The original engine is unaffected and permissive.
	if _, err := db.Query("SELECT VALUE 2 * r.x FROM t AS r"); err != nil {
		t.Errorf("permissive engine failed: %v", err)
	}
	if strict.Options().StopOnError == db.Options().StopOnError {
		t.Error("options should differ between views")
	}
}

func TestMustQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustQuery should panic on error")
		}
	}()
	New(nil).MustQuery("SELECT VALUE nowhere")
}

func TestSchemaDeclarationAndValidation(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "{{ {'a': 1} }}"); err != nil {
		t.Fatal(err)
	}
	name, err := db.DeclareSchema("CREATE TABLE t (a INT)")
	if err != nil || name != "t" {
		t.Fatalf("DeclareSchema = %q, %v", name, err)
	}
	if _, ok := db.SchemaOf("t"); !ok {
		t.Error("SchemaOf should find the declaration")
	}
	// Declaring a schema the current data violates reports it.
	if _, err := db.DeclareSchema("CREATE TABLE t (a STRING)"); err == nil {
		t.Error("conflicting schema should be reported")
	}
	// RegisterChecked validates.
	if err := db.RegisterChecked("u", MustParseValue("{{ {'b': 1} }}")); err != nil {
		t.Fatalf("undeclared name passes: %v", err)
	}
	if _, err := db.DeclareSchema("CREATE TABLE u (b INT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterChecked("u", MustParseValue("{{ {'b': 'x'} }}")); err == nil {
		t.Error("RegisterChecked should reject non-conforming data")
	}
	// DeclareType directly.
	if err := db.DeclareType("v", types.IntType); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterChecked("v", value.Int(3)); err != nil {
		t.Errorf("conforming scalar rejected: %v", err)
	}
}

func TestPreparedStaticCheck(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "{{ {'a': 1} }}"); err != nil {
		t.Fatal(err)
	}
	// No schema: nothing to find.
	p, err := db.Prepare("SELECT 2 * r.nope AS x FROM t AS r")
	if err != nil {
		t.Fatal(err)
	}
	if problems := p.Check(); len(problems) != 0 {
		t.Errorf("schemaless check should be silent, got %v", problems)
	}
	// With a closed schema the impossible navigation is flagged, and the
	// query still runs (findings are advisory).
	if _, err := db.DeclareSchema("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare("SELECT 2 * r.nope AS x FROM t AS r")
	if err != nil {
		t.Fatal(err)
	}
	problems := p2.Check()
	if len(problems) == 0 {
		t.Fatal("closed schema should flag the impossible attribute")
	}
	if !strings.Contains(problems[0].String(), "nope") {
		t.Errorf("finding should name the attribute: %v", problems[0])
	}
	if _, err := p2.Exec(); err != nil {
		t.Errorf("advisory findings must not block execution: %v", err)
	}
}

func TestInferSchemaUnknownName(t *testing.T) {
	if _, err := New(nil).InferSchema("ghost"); err == nil {
		t.Error("InferSchema of an unknown name should fail")
	}
}

func TestQueryErrorsSurface(t *testing.T) {
	db := New(nil)
	cases := []string{
		"SELEC 1",                        // parse error
		"SELECT VALUE ghost",             // unresolved name
		"SELECT VALUE NO_FN(1)",          // unknown function
		"SELECT VALUE x FROM ghost AS x", // unknown named value
	}
	for _, q := range cases {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "{{ {'a': 1}, {'a': 2}, {'a': 3} }}"); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("SELECT VALUE SUM(r.a) FROM t AS r")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				v, err := p.Exec()
				if err != nil {
					done <- err
					return
				}
				if !value.Equivalent(v, MustParseValue("{{6}}")) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrepareFieldChainIsLinear prepares a field chain on a constructor
// head, `{'a': 1}.a.a…`, at two lengths: the rewriter resolves the chain
// in one pass, so doubling its length must roughly double what Prepare
// allocates (a walk per step quadruples it).
func TestPrepareFieldChainIsLinear(t *testing.T) {
	db := New(nil)
	allocated := func(n int) uint64 {
		query := "{'a': 1}" + strings.Repeat(".a", n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := db.Prepare(query); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(100) // warm the engine's one-time state
	short, long := allocated(2000), allocated(4000)
	t.Logf("Prepare allocates %d B at 2,000 steps, %d B at 4,000", short, long)
	if float64(long) > 2.5*float64(short) {
		t.Errorf("4,000 steps allocate %d B, more than 2.5× the %d B of 2,000", long, short)
	}
}

// TestGroupKeySubstitutionIsLinear prepares `SELECT k, e.a + … + e.a AS s
// … GROUP BY e.a AS k` at two lengths: every term is the group key and
// becomes a reference to k, and matching a node against the key costs
// one comparison of the key's size, so doubling the terms must roughly
// double what Prepare allocates (printing every subtree to look it up
// quadruples it).
func TestGroupKeySubstitutionIsLinear(t *testing.T) {
	db := New(nil)
	if err := db.RegisterSION("t", "[{'a': 1}]"); err != nil {
		t.Fatal(err)
	}
	allocated := func(n int) uint64 {
		query := "SELECT k, e.a" + strings.Repeat(" + e.a", n-1) + " AS s FROM t AS e GROUP BY e.a AS k"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := db.Prepare(query); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(100) // warm the engine's one-time state
	short, long := allocated(2000), allocated(4000)
	t.Logf("Prepare allocates %d B at 2,000 terms, %d B at 4,000", short, long)
	if float64(long) > 2.5*float64(short) {
		t.Errorf("4,000 terms allocate %d B, more than 2.5× the %d B of 2,000", long, short)
	}
}
