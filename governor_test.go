package sqlpp

// The resource-governance and fault-tolerance layer, exercised through
// the public facade: typed ResourceErrors per budget kind, panic
// containment at the Exec boundary, result-identity under generous
// budgets (including every paper listing), and the nil-governor
// fast-path overhead benchmark.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlpp/internal/compat"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// govEngine builds an engine over n {'id', 'k'} rows with the given
// limits.
func govEngine(t testing.TB, n int, lim Limits) *Engine {
	t.Helper()
	db := New(&Options{Limits: lim, Parallelism: 1})
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'k': %d}", i, i%53)
	}
	sb.WriteString("}}")
	if err := db.RegisterSION("rows", sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

func wantResource(t *testing.T, err error, kind eval.ResourceKind) *ResourceError {
	t.Helper()
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want ResourceError(%s), got %v", kind, err)
	}
	if re.Kind != kind {
		t.Fatalf("want kind %s, got %s (site %s)", kind, re.Kind, re.Site)
	}
	return re
}

func TestGovernorOutputRows(t *testing.T) {
	db := govEngine(t, 1000, Limits{MaxOutputRows: 10})
	_, err := db.Query(`SELECT r.id AS id FROM rows AS r`)
	re := wantResource(t, err, ResourceRows)
	if re.Limit != 10 {
		t.Errorf("limit %d", re.Limit)
	}
	// Under the budget the same engine still works.
	v, err := db.Query(`SELECT r.id AS id FROM rows AS r LIMIT 5`)
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if els, _ := value.Elements(v); len(els) != 5 {
		t.Errorf("want 5 rows, got %d", len(els))
	}
}

// groupAsQuery returns each group's collection, so the GROUP BY has to
// materialize every input row — the governor's materialization example.
// (An aggregate-only GROUP BY streams and retains one state per group;
// see TestGovernorStreamedAggregateChargesGroups.)
const groupAsQuery = `SELECT k AS k, g AS members FROM rows AS r GROUP BY r.k AS k GROUP AS g`

func TestGovernorMaterializedValues(t *testing.T) {
	db := govEngine(t, 1000, Limits{MaxMaterializedValues: 900})
	_, err := db.Query(groupAsQuery)
	if re := wantResource(t, err, ResourceValues); re.Site != "group-by" {
		t.Errorf("site %s, want group-by", re.Site)
	}
}

func TestGovernorMaterializedBytes(t *testing.T) {
	db := govEngine(t, 1000, Limits{MaxMaterializedBytes: 2048})
	_, err := db.Query(groupAsQuery)
	if re := wantResource(t, err, ResourceBytes); re.Site != "group-by" {
		t.Errorf("site %s, want group-by", re.Site)
	}
}

// TestGovernorStreamedAggregateChargesGroups: 1,000 rows fold into 53
// groups. The streamed operator retains 53 group states, not 1,000 rows:
// a budget of exactly 53 materialized values passes and 52 trips on the
// 53rd group. ARRAY_AGG retains its inputs and pays for each.
func TestGovernorStreamedAggregateChargesGroups(t *testing.T) {
	const agg = `SELECT r.k AS k, COUNT(*) AS n, SUM(r.id) AS s FROM rows AS r GROUP BY r.k`
	if _, err := govEngine(t, 1000, Limits{MaxMaterializedValues: 53}).Query(agg); err != nil {
		t.Errorf("a budget of 53 covers 53 group states: %v", err)
	}
	_, err := govEngine(t, 1000, Limits{MaxMaterializedValues: 52}).Query(agg)
	if re := wantResource(t, err, ResourceValues); re.Site != "group-by" || re.Observed != 53 {
		t.Errorf("want the 53rd group to trip at group-by, got site %s observed %d", re.Site, re.Observed)
	}
	const arr = `SELECT r.k AS k, ARRAY_AGG(r.id) AS ids FROM rows AS r GROUP BY r.k`
	if _, err := govEngine(t, 1000, Limits{MaxMaterializedValues: 1053}).Query(arr); err != nil {
		t.Errorf("a budget of 1053 covers 53 groups and 1,000 retained values: %v", err)
	}
	_, err = govEngine(t, 1000, Limits{MaxMaterializedValues: 1052}).Query(arr)
	wantResource(t, err, ResourceValues)
}

func TestGovernorDepth(t *testing.T) {
	db := govEngine(t, 100, Limits{MaxDepth: 1})
	_, err := db.Query(`SELECT r.id AS id, (SELECT VALUE x.k FROM rows AS x WHERE x.id = r.id) AS ks FROM rows AS r`)
	wantResource(t, err, ResourceDepth)

	// Depth restores after each block: sibling blocks at the same level
	// must not accumulate.
	db2 := govEngine(t, 100, Limits{MaxDepth: 2})
	if _, err := db2.Query(`SELECT r.id AS id, (SELECT VALUE x.k FROM rows AS x WHERE x.id = r.id) AS ks FROM rows AS r LIMIT 3`); err != nil {
		t.Fatalf("depth 2 must admit one level of nesting: %v", err)
	}
}

// TestGovernorDepthSetOpAndWith: a WITH and a set operation each take
// one level of nesting, as a query block does, and their operand blocks
// the next. At MaxDepth 2 both queries run; at MaxDepth 1 both fail on
// their first operand block. The production path and the oracle give the
// same outcome at each budget.
func TestGovernorDepthSetOpAndWith(t *testing.T) {
	for _, q := range []string{
		`WITH ks AS (SELECT VALUE r.k FROM rows AS r WHERE r.id < 5) SELECT VALUE k FROM ks AS k`,
		`SELECT VALUE r.id FROM rows AS r WHERE r.id < 3 UNION SELECT VALUE r.k FROM rows AS r WHERE r.k < 3`,
	} {
		for _, depth := range []int{1, 2} {
			outcomes := map[bool]string{}
			for _, oracle := range []bool{false, true} {
				db := New(&Options{Limits: Limits{MaxDepth: depth}, Parallelism: 1, DisableOptimizer: oracle})
				if err := db.RegisterSION("rows", `{{ {'id': 1, 'k': 2}, {'id': 2, 'k': 9}, {'id': 7, 'k': 1} }}`); err != nil {
					t.Fatal(err)
				}
				v, err := db.Query(q)
				if depth == 1 {
					if re := wantResource(t, err, ResourceDepth); re.Observed != 2 {
						t.Errorf("oracle=%v %s: depth error observed %d, want 2", oracle, q, re.Observed)
					}
					outcomes[oracle] = err.Error()
					continue
				}
				if err != nil {
					t.Fatalf("oracle=%v %s: MaxDepth 2 must admit it: %v", oracle, q, err)
				}
				outcomes[oracle] = v.String()
			}
			if outcomes[false] != outcomes[true] {
				t.Errorf("MaxDepth %d %s: production %s, oracle %s", depth, q, outcomes[false], outcomes[true])
			}
		}
	}
}

func TestGovernorWallTime(t *testing.T) {
	db := govEngine(t, 2000, Limits{MaxWallTime: time.Millisecond})
	start := time.Now()
	_, err := db.Query(`SELECT COUNT(*) AS n FROM rows AS a, rows AS b, rows AS c WHERE a.k = b.k AND b.k = c.k`)
	wantResource(t, err, ResourceTime)
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("wall budget honoured too slowly: %v", e)
	}
}

// TestGovernorErrorThroughHTTPShape: the typed error survives errors.As
// through the library surface (what the server's handler relies on).
func TestGovernorErrorTyped(t *testing.T) {
	db := govEngine(t, 100, Limits{MaxOutputRows: 3})
	p, err := db.Prepare(`SELECT r.id AS id FROM rows AS r`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.ExecContext(context.Background())
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("ResourceError lost through Prepared.ExecContext: %v", err)
	}
}

// TestPanicContainedAtExec: a panicking builtin must become a
// *PanicError on the panicking query only; the engine keeps serving.
func TestPanicContainedAtExec(t *testing.T) {
	db := govEngine(t, 100, Limits{})
	db.funcs.Register("ALWAYS_PANICS", 0, 0, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		panic("builtin bug")
	})
	_, err := db.Query(`SELECT VALUE ALWAYS_PANICS() FROM rows AS r`)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if !strings.Contains(err.Error(), "builtin bug") {
		t.Errorf("panic value lost: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("stack trace not captured")
	}
	// The engine survives and the next query is unaffected.
	if _, err := db.Query(`SELECT VALUE COUNT(*) FROM rows AS r`); err != nil {
		t.Fatalf("engine broken after contained panic: %v", err)
	}
}

// TestPanicContainedInParams: the parameterized path shares the barrier.
func TestPanicContainedInParams(t *testing.T) {
	db := govEngine(t, 10, Limits{})
	db.funcs.Register("PANICS_TOO", 0, 0, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		panic("params bug")
	})
	p, err := db.PrepareParams(`SELECT VALUE PANICS_TOO() FROM rows AS r WHERE r.id < $n`, "$n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Exec(map[string]value.Value{"$n": value.Int(3)})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError via PreparedParams, got %v", err)
	}
}

// generousLimits never trip on test-sized data but keep every charge
// site live.
var generousLimits = Limits{
	MaxOutputRows:         1 << 40,
	MaxMaterializedValues: 1 << 40,
	MaxMaterializedBytes:  1 << 50,
	MaxDepth:              1 << 20,
	MaxWallTime:           time.Hour,
}

// TestPaperListingsUnderGovernor: all 28 paper listings produce
// byte-identical results with the governor charging generous budgets —
// governance observes, it never changes semantics.
func TestPaperListingsUnderGovernor(t *testing.T) {
	for _, c := range compat.PaperCases() {
		for _, compatFlag := range []bool{false, true} {
			switch c.Mode {
			case compat.Core:
				if compatFlag {
					continue
				}
			case compat.Compat:
				if !compatFlag {
					continue
				}
			}
			run := func(lim Limits) (value.Value, error) {
				db := New(&Options{Compat: compatFlag, StopOnError: c.Strict, Limits: lim})
				for name, src := range c.Data {
					if err := db.RegisterSION(name, src); err != nil {
						t.Fatal(err)
					}
				}
				return db.Query(c.Query)
			}
			plain, errPlain := run(Limits{})
			gov, errGov := run(generousLimits)
			if (errPlain == nil) != (errGov == nil) {
				t.Errorf("%s(compat=%v): error parity broken: plain=%v governed=%v",
					c.Name, compatFlag, errPlain, errGov)
				continue
			}
			if errPlain != nil {
				continue
			}
			if plain.String() != gov.String() {
				t.Errorf("%s(compat=%v): governed result diverges:\n  plain    %s\n  governed %s",
					c.Name, compatFlag, plain, gov)
			}
		}
	}
}

// BenchmarkGovernorOverhead compares ungoverned execution (nil
// governor: one pointer test per charge site) against execution under
// generous budgets. The ungoverned number is the regression guard — it
// must stay at the seed's level.
func BenchmarkGovernorOverhead(b *testing.B) {
	const n = 20000
	q := groupAsQuery
	b.Run("ungoverned", func(b *testing.B) {
		db := govEngine(b, n, Limits{})
		p, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("governed", func(b *testing.B) {
		db := govEngine(b, n, generousLimits)
		p, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
