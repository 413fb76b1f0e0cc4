package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// prepareRobust registers data and plans query through the physical
// optimizer; the returned function runs the plan with a chosen
// cancellation context and governor limits, so a test can arm a deadline
// after the set-up it must not time.
func prepareRobust(t *testing.T, data map[string]string, query string, parallelism int) func(ctx0 context.Context, lim eval.Limits) (value.Value, error) {
	t.Helper()
	cat := catalog.New()
	for name, src := range data {
		if err := cat.Register(name, sion.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		return func(context.Context, eval.Limits) (value.Value, error) { return nil, err }
	}
	Optimize(core, OptOptions{Mode: eval.Permissive, Funcs: registry})
	root := eval.Compile(core, eval.CompileOpts{Mode: eval.Permissive, Funcs: registry})
	return func(ctx0 context.Context, lim eval.Limits) (value.Value, error) {
		ec := &eval.Context{Mode: eval.Permissive, Names: cat, Funcs: registry, Run: Run, Parallelism: parallelism}
		if ctx0 != nil && ctx0.Done() != nil {
			ec.Ctx = ctx0
		}
		ec.Gov = eval.NewGovernor(lim)
		return root(ec, eval.NewEnv())
	}
}

// execRobust is prepareRobust and one run.
func execRobust(t *testing.T, data map[string]string, query string, parallelism int, ctx0 context.Context, lim eval.Limits) (value.Value, error) {
	t.Helper()
	return prepareRobust(t, data, query, parallelism)(ctx0, lim)
}

// rowsSION builds a bag of n {'id': i, 'k': i % mod} tuples.
func rowsSION(n, mod int) string {
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'k': %d}", i, i%mod)
	}
	sb.WriteString("}}")
	return sb.String()
}

// TestWorkerPanicContained: a panic inside a parallel-scan worker must
// surface as that query's *PanicError — not kill the process, not leak
// the other workers.
func TestWorkerPanicContained(t *testing.T) {
	registry.Register("PANIC_AT_1400", 1, 1, func(ctx *eval.Context, args []value.Value) (value.Value, error) {
		if n, ok := args[0].(value.Int); ok && int64(n) == 1400 {
			panic("injected worker panic")
		}
		return args[0], nil
	})
	lowerParallelThreshold(t, 64)
	data := parallelData(1500)
	before := runtime.NumGoroutine()
	_, err := execRobust(t, data, `SELECT VALUE PANIC_AT_1400(e.id) FROM emp AS e`, 4, nil, eval.Limits{})
	var pe *eval.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError from the worker, got %v", err)
	}
	if !strings.Contains(pe.Error(), "injected worker panic") {
		t.Errorf("panic value lost: %q", pe.Error())
	}
	// All workers must have exited: the failed query may not leak
	// goroutines (give the runtime a moment to reap them).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestDeadlineDuringHashBuild: a deadline that fires while the hash
// join is building over a 400k-row side must stop the build promptly —
// the blocking build loop polls cancellation itself (it produces no
// output rows, so the output-path polls never run). The join is nearly
// all build (8 probes, 3200 result rows), so an uninterrupted run times
// the build, and a deadline at a twentieth of it lands inside the build.
// The side is large enough that the build takes tens of milliseconds,
// so the bound is not within a scheduler time slice of the deadline.
func TestDeadlineDuringHashBuild(t *testing.T) {
	run := prepareRobust(t, map[string]string{
		"small": rowsSION(8, 8),
		"big":   rowsSION(400_000, 1000),
	}, `SELECT s.id AS sid, b.id AS bid FROM small AS s, big AS b WHERE s.k = b.k`, 1)

	start := time.Now()
	if _, err := run(nil, eval.Limits{}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), full/20)
	defer cancel()
	start = time.Now()
	_, err := run(ctx, eval.Limits{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	t.Logf("uninterrupted %v, deadline %v, stopped after %v", full, full/20, elapsed)
	if elapsed > full/2 {
		t.Errorf("build not cut short: stopped after %v of an uninterrupted %v", elapsed, full)
	}
}

// TestGovernorChargesHashBuild: the build side's materialization charges
// the values and bytes budgets at the hash-build site, and a build that
// a budget or MaxCollectionSize stops early allocates for the rows it
// admitted, not for its whole source: the table presizes to what the
// limits leave.
func TestGovernorChargesHashBuild(t *testing.T) {
	const bigRows = 20000
	run := prepareRobust(t, map[string]string{
		"small": rowsSION(4, 4),
		"big":   rowsSION(bigRows, 50),
	}, `SELECT s.id AS sid, b.id AS bid FROM small AS s, big AS b WHERE s.k = b.k`, 1)
	ctx, phys, i := hashJoinFixture(t, bigRows, 50)
	ctx.MaxCollectionSize = 100
	for _, c := range []struct {
		name string
		run  func() error
		kind eval.ResourceKind // "" for the collection-size limit
	}{
		{"values budget", func() error {
			_, err := run(nil, eval.Limits{MaxMaterializedValues: 100})
			return err
		}, eval.ResourceValues},
		{"bytes budget", func() error {
			_, err := run(nil, eval.Limits{MaxMaterializedBytes: 10000})
			return err
		}, eval.ResourceBytes},
		{"collection size", func() error {
			_, err := buildHashTable(ctx, eval.NewEnv(), phys.steps[i].hash, false)
			return err
		}, ""},
	} {
		err := c.run()
		var re *eval.ResourceError
		switch {
		case c.kind == "":
			if err == nil || !strings.Contains(err.Error(), "exceeds limit of 100") {
				t.Fatalf("%s: want the collection-size error, got %v", c.name, err)
			}
		case !errors.As(err, &re):
			t.Fatalf("%s: want ResourceError, got %v", c.name, err)
		case re.Kind != c.kind || re.Site != "hash-build":
			t.Errorf("%s: want %s at hash-build, got %s at %s", c.name, c.kind, re.Kind, re.Site)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for j := 0; j < runs; j++ {
			_ = c.run() // fails as above
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		// A table presized from the whole source holds 28 bytes a row
		// (one bound value, its position, its chain link) before the
		// first row is admitted.
		t.Logf("%s: %d bytes allocated per stopped build, %d for a source-sized table", c.name, perRun, 28*bigRows)
		if perRun > 64<<10 {
			t.Errorf("%s: a stopped build allocates %d bytes, want <= %d", c.name, perRun, 64<<10)
		}
	}
}

// TestGovernorDeadlineDuringOrderBy: ORDER BY materialization both
// polls the deadline and charges the output budget.
func TestGovernorOrderByCharges(t *testing.T) {
	data := map[string]string{"big": rowsSION(5000, 97)}
	_, err := execRobust(t, data,
		`SELECT VALUE b.id FROM big AS b ORDER BY b.k`,
		1, nil, eval.Limits{MaxOutputRows: 100})
	var re *eval.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want ResourceError, got %v", err)
	}
	if re.Kind != eval.ResourceRows || re.Site != "order-by" {
		t.Errorf("want output-rows at order-by, got %s at %s", re.Kind, re.Site)
	}
}

// TestGovernorTopKBounded: ORDER BY ... LIMIT k charges only the heap's
// bounded growth, so a tight row budget still admits top-k over a large
// scan.
func TestGovernorTopKBounded(t *testing.T) {
	data := map[string]string{"big": rowsSION(5000, 97)}
	v, err := execRobust(t, data,
		`SELECT VALUE b.id FROM big AS b ORDER BY b.k LIMIT 10`,
		1, nil, eval.Limits{MaxOutputRows: 100})
	if err != nil {
		t.Fatalf("top-k must fit a 100-row budget: %v", err)
	}
	if els, _ := value.Elements(v); len(els) != 10 {
		t.Errorf("want 10 rows, got %d", len(els))
	}
}

// TestGovernorSharedAcrossWorkers: parallel workers fork the context but
// share the governor, so budgets hold across the whole scan.
func TestGovernorSharedAcrossWorkers(t *testing.T) {
	lowerParallelThreshold(t, 64)
	data := parallelData(1500)
	_, err := execRobust(t, data, `SELECT e.id AS id FROM emp AS e`, 4, nil,
		eval.Limits{MaxOutputRows: 200})
	var re *eval.ResourceError
	if !errors.As(err, &re) || re.Kind != eval.ResourceRows {
		t.Fatalf("want output-rows error across workers, got %v", err)
	}
}

// TestGovernorUnlimitedIdentical: a governor with generous budgets must
// not change any result relative to an ungoverned run.
func TestGovernorUnlimitedIdentical(t *testing.T) {
	lowerParallelThreshold(t, 64)
	data := parallelData(1500)
	data["tags"] = `{{ {'dno': 1, 'tag': 'a'}, {'dno': 2, 'tag': 'b'} }}`
	queries := []string{
		`SELECT e.deptno AS dno, COUNT(*) AS n FROM emp AS e GROUP BY e.deptno`,
		`SELECT DISTINCT e.title AS title FROM emp AS e`,
		`SELECT e.id AS id, d.tag AS tag FROM emp AS e, tags AS d WHERE e.deptno = d.dno`,
		`SELECT VALUE e.id FROM emp AS e ORDER BY e.salary LIMIT 25`,
	}
	generous := eval.Limits{
		MaxOutputRows:         1 << 40,
		MaxMaterializedValues: 1 << 40,
		MaxMaterializedBytes:  1 << 50,
		MaxDepth:              1 << 20,
		MaxWallTime:           time.Hour,
	}
	for _, q := range queries {
		plain, err := execRobust(t, data, q, 4, nil, eval.Limits{})
		if err != nil {
			t.Fatalf("plain %s: %v", q, err)
		}
		gov, err := execRobust(t, data, q, 4, nil, generous)
		if err != nil {
			t.Fatalf("governed %s: %v", q, err)
		}
		if plain.String() != gov.String() {
			t.Errorf("governed result diverges for %s:\n  plain    %s\n  governed %s", q, plain, gov)
		}
	}
}
