package sqlpp_test

// Concurrency guarantees the query service relies on, all meaningful
// under -race:
//
//   - one cached Prepared may execute from many goroutines at once
//     (fresh eval.Context and Env per execution, immutable Core AST)
//   - catalog mutation may interleave with running queries (a query
//     observes the values registered when it resolves each name)
//   - cancellation and deadlines reach the plan row-production loops

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/value"
)

// TestPreparedConcurrentExec executes one shared compiled plan from 8
// goroutines and checks every result is the expected one — the
// soundness requirement for the server's plan cache.
func TestPreparedConcurrentExec(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("hr.emp", `{{
		{'name':'Ada','salary':120,'projects':['OLAP Security','Serverless Query']},
		{'name':'Bob','salary':90,'projects':['OLTP Security']},
		{'name':'Cyd','salary':150,'projects':[]}
	}}`); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(`
		SELECT e.name AS name, pr AS project
		FROM hr.emp AS e, e.projects AS pr
		WHERE e.salary > 100 ORDER BY e.name, pr`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				got, err := p.Exec()
				if err != nil {
					errs <- err
					return
				}
				if !value.Equivalent(want, got) {
					errs <- fmt.Errorf("result diverged: got %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedParamsConcurrentExec does the same for parameterized
// plans, with each goroutine supplying different parameter values.
func TestPreparedParamsConcurrentExec(t *testing.T) {
	db := sqlpp.New(nil)
	big := make(value.Bag, 100)
	for i := range big {
		t_ := value.EmptyTuple()
		t_.Put("n", value.Int(int64(i)))
		big[i] = t_
	}
	if err := db.Register("nums", big); err != nil {
		t.Fatal(err)
	}
	p, err := db.PrepareParams(`SELECT VALUE x.n FROM nums AS x WHERE x.n < $cap`, "$cap")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(cap int64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, err := p.Exec(map[string]value.Value{"$cap": value.Int(cap)})
				if err != nil {
					errs <- err
					return
				}
				els, ok := value.Elements(got)
				if !ok || int64(len(els)) != cap {
					errs <- fmt.Errorf("cap %d: got %d rows", cap, len(els))
					return
				}
			}
		}(int64(w * 10))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCatalogConcurrentMutation mixes Register/Drop/Query across
// goroutines: no panics, and every query result is either a well-formed
// answer or a clean resolution error.
func TestCatalogConcurrentMutation(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("stable", `{{ {'n': 1}, {'n': 2}, {'n': 3} }}`); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers churn transient names.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("churn_%d", id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					if err := db.Register(name, value.Bag{value.Int(int64(i))}); err != nil {
						t.Error(err)
						return
					}
				} else {
					db.Drop(name)
				}
			}
		}(w)
	}

	// Readers query the stable collection and occasionally a churning
	// one; the latter may cleanly fail to resolve, never panic.
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, err := db.Query(`SELECT VALUE s.n FROM stable AS s WHERE s.n >= 2`)
				if err != nil {
					t.Errorf("stable query failed: %v", err)
					return
				}
				if els, ok := value.Elements(v); !ok || len(els) != 2 {
					t.Errorf("stable query returned %s", v)
					return
				}
				if i%10 == 0 {
					churn := fmt.Sprintf("churn_%d", id%3)
					if v, err := db.Query(`SELECT VALUE c FROM ` + churn + ` AS c`); err == nil {
						if _, ok := value.Elements(v); !ok {
							t.Errorf("churn query returned malformed %s", v)
							return
						}
					} else if !strings.Contains(err.Error(), "unresolved name") &&
						!strings.Contains(err.Error(), churn) {
						t.Errorf("unexpected churn error: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Let the readers finish, then stop the writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: goroutines did not finish")
	}
}

// registerCross registers two n-element bags for cross-join blowups.
func registerCross(t testing.TB, db *sqlpp.Engine, n int) {
	t.Helper()
	big := make(value.Bag, n)
	for i := range big {
		big[i] = value.Int(int64(i))
	}
	if err := db.Register("big1", big); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("big2", big); err != nil {
		t.Fatal(err)
	}
}

const crossJoinQuery = `SELECT VALUE a + b FROM big1 AS a, big2 AS b WHERE a + b < 0`

// TestQueryContextDeadline: a deadline stops a multi-million-row cross
// join in the plan loops, promptly and with a wrapped context error.
func TestQueryContextDeadline(t *testing.T) {
	db := sqlpp.New(nil)
	registerCross(t, db, 3000)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.QueryContext(ctx, crossJoinQuery)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed >= time.Second {
		t.Errorf("cancellation took %s, want well under 1s", elapsed)
	}
}

// TestQueryContextCancel: explicit cancellation from another goroutine
// also stops execution.
func TestQueryContextCancel(t *testing.T) {
	db := sqlpp.New(nil)
	registerCross(t, db, 3000)
	p, err := db.Prepare(crossJoinQuery)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.ExecContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

// TestQueryContextCompletes: an ample deadline changes nothing about
// the result.
func TestQueryContextCompletes(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("xs", `{{ 1, 2, 3 }}`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	v, err := db.QueryContext(ctx, `SELECT VALUE x * 2 FROM xs AS x ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	want := sqlpp.MustParseValue(`[2, 4, 6]`)
	if !value.Equivalent(want, v) {
		t.Errorf("got %s, want %s", v, want)
	}
}

// TestPreparedSubBlocksConcurrentExec runs one Prepared with four kinds
// of correlated sub-block — a nested SELECT VALUE, a COLL_COUNT over a
// block, ORDER BY … LIMIT, and GROUP BY — from 8 goroutines, sequential
// and with a partitioned outer scan. Each sub-block's run state is reused
// across the outer rows of one execution (and is per worker under the
// parallel scan); every answer must still equal the reference oracle's,
// and every row's nested collections must be its own, intact after the
// query returns: no two rows' answers share a backing array.
func TestPreparedSubBlocksConcurrentExec(t *testing.T) {
	const rows = 1200 // past the 1,024-row parallel-scan threshold
	var sb strings.Builder
	sb.WriteString("{{")
	names := []string{"OLAP Security", "Q3 Plan", "OLTP Security", "Payroll", "Security Audit"}
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'deptno': %d, 'projects': [", i, i%16)
		for j := 0; j <= i%len(names); j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "{'name': '%s', 'hours': %d}", names[(i+j)%len(names)], (i*7+j*3)%10)
		}
		sb.WriteString("]}")
	}
	sb.WriteString("}}")
	emp := sb.String()
	depts := make([]string, 16)
	for d := range depts {
		depts[d] = fmt.Sprintf("{'dno': %d}", d)
	}
	dept := "{{" + strings.Join(depts, ", ") + "}}"
	const query = `SELECT e.id AS id,
		(SELECT VALUE p.name FROM e.projects AS p WHERE p.name LIKE '%Security%') AS sec,
		COLL_COUNT(SELECT VALUE d.dno FROM dept AS d WHERE d.dno <= e.deptno) AS ndept,
		(SELECT VALUE p.name FROM e.projects AS p ORDER BY p.hours DESC, p.name LIMIT 2) AS top2,
		(SELECT k AS k, COUNT(*) AS n FROM e.projects AS p GROUP BY p.hours % 3 AS k) AS byhours
		FROM emp AS e`
	engine := func(opts *sqlpp.Options) *sqlpp.Engine {
		db := sqlpp.New(opts)
		if err := db.RegisterSION("emp", emp); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterSION("dept", dept); err != nil {
			t.Fatal(err)
		}
		return db
	}
	oracle, err := engine(&sqlpp.Options{DisableOptimizer: true}).Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	for _, par := range []int{1, 4} {
		p, err := engine(&sqlpp.Options{Parallelism: par}).Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		if notes := strings.Join(p.PlanNotes(), " "); par > 1 && !strings.Contains(notes, "parallel-scan") {
			t.Fatalf("outer scan not partitioned: %s", notes)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got, err := p.Exec()
					if err != nil {
						errs <- err
						return
					}
					if got.String() != want {
						errs <- fmt.Errorf("parallelism %d: answer diverges from the oracle", par)
						return
					}
					if err := ownAnswers(got); err != nil {
						errs <- fmt.Errorf("parallelism %d: %v", par, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// ownAnswers checks that no two rows' nested collections share storage.
func ownAnswers(result value.Value) error {
	seen := map[*value.Value]int{}
	for i, row := range result.(value.Bag) {
		for _, name := range []string{"sec", "top2", "byhours"} {
			v, _ := row.(*value.Tuple).Get(name)
			elems, _ := value.Elements(v)
			if len(elems) == 0 {
				continue
			}
			if j, dup := seen[&elems[0]]; dup {
				return fmt.Errorf("rows %d and %d share the backing array of %s", j, i, name)
			}
			seen[&elems[0]] = i
		}
	}
	return nil
}
