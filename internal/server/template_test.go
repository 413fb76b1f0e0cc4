package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sqlpp"
	"sqlpp/internal/server"
	"sqlpp/internal/value"
)

// The four ad-hoc query shapes of the serve-adhoc workload, each with
// its numeric literals as verbs.
var adhocShapes = []struct {
	name, text string
	args       int
}{
	{"adhoc_join", `SELECT e.name AS name, d.dname AS dname, COLL_COUNT(SELECT VALUE h.id FROM hr AS h WHERE h.deptno = e.deptno) AS peers ` +
		`FROM emp AS e, dept AS d WHERE e.id = %d AND e.deptno = d.dno`, 1},
	{"adhoc_window", `SELECT e.id AS id, RANK() OVER (ORDER BY e.salary DESC) AS r FROM emp AS e WHERE e.salary >= %d AND e.salary < %d`, 2},
	{"adhoc_3way", `SELECT d.region AS region, COUNT(*) AS c FROM emp AS e, dept AS d, hr AS h ` +
		`WHERE e.id = %d AND e.deptno = d.dno AND h.deptno = d.dno GROUP BY d.region`, 1},
	{"adhoc_nested", `SELECT h.id AS id, (SELECT VALUE p.name FROM h.projects AS p WHERE p.hours > %d) AS ps, COLL_COUNT(h.projects) AS np ` +
		`FROM hr AS h WHERE h.id = %d`, 2},
}

// adhocEngine registers a serve-adhoc-like catalog: 2,000 emp rows
// (over the index veto's 1,024-row floor) with a hash index on id and an
// ordered one on salary, 1,000 dept rows over 50 department numbers and
// 50 hr rows with nested projects. A third of emp has id 7 and the rest
// share 200 other ids — few enough for the statistics to count each
// exactly — so `e.id = 7` is unselective: its probe is vetoed, and the
// three-way join, written emp first, runs hr, dept, emp instead. Any
// other id keeps the probe and the written order. A few salaries are
// strings, which strict mode rejects. Strict mode plans no joins, probes
// or reorders — its three-way join is a nested cross product — so its
// catalog is a twentieth of the size.
func adhocEngine(t testing.TB, strict bool) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(&sqlpp.Options{StopOnError: strict})
	scale := 1
	if strict {
		scale = 20
	}
	depts := int64(50 / scale)
	var emp, dept, hr value.Bag
	for i := 0; i < 2000/scale; i++ {
		id := int64(i % 200)
		if i%3 == 0 {
			id = 7
		}
		var salary value.Value = value.Int(int64(10000 + (i*7919)%90000))
		if i%331 == 5 {
			salary = value.String("n/a")
		}
		emp = append(emp, tuple(
			"id", value.Int(id), "name", value.String("n"+strconv.Itoa(i)),
			"deptno", value.Int(int64(i)%depts), "salary", salary))
	}
	for i := 0; i < 1000/scale; i++ {
		dept = append(dept, tuple(
			"dno", value.Int(int64(i)%depts), "dname", value.String("d"+strconv.Itoa(i)),
			"region", value.String("r"+strconv.Itoa(i%5))))
	}
	for i := 0; i < 50/scale; i++ {
		var projects value.Array
		for j := 0; j < i%4; j++ {
			projects = append(projects, tuple(
				"name", value.String(fmt.Sprintf("p%d.%d", i, j)), "hours", value.Int(int64((i*7+j*13)%40))))
		}
		hr = append(hr, tuple("id", value.Int(int64(i)), "deptno", value.Int(int64(i)%depts), "projects", projects))
	}
	for name, v := range map[string]value.Value{"emp": emp, "dept": dept, "hr": hr} {
		if err := db.Register(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("emp_id", "emp", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("emp_salary", "emp", "salary", "ordered"); err != nil {
		t.Fatal(err)
	}
	return db
}

// literalVectors draws n literal vectors of args literals each, cycling
// every literal through the widths 1 to 6, and mixing in the values on
// either side of the recorded guards: id 7 (vetoed, reordered) and
// salary bands wider than a quarter of the rows (vetoed).
func literalVectors(rng *rand.Rand, n, args int) [][]any {
	out := make([][]any, n)
	for i := range out {
		v := make([]any, args)
		for j := range v {
			width := 1 + (i+j)%6
			lo := 0
			if width > 1 {
				lo = pow10(width - 1)
			}
			v[j] = lo + rng.Intn(pow10(width)-lo)
		}
		switch {
		case i%40 == 0: // the unselective id, whose queries are the costly ones
			v[args-1] = 7
		case i%10 == 1 && args == 2:
			v[0], v[1] = 10000+rng.Intn(100), 60000+rng.Intn(40000)
		}
		out[i] = v
	}
	return out
}

// tuple builds a tuple from name, value pairs.
func tuple(kv ...any) *value.Tuple {
	fields := make([]value.Field, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		fields = append(fields, value.Field{Name: kv[i].(string), Value: kv[i+1].(value.Value)})
	}
	return value.NewTuple(fields...)
}

func pow10(n int) int {
	p := 1
	for ; n > 0; n-- {
		p *= 10
	}
	return p
}

// volatile matches the two response fields a cached answer may differ
// in from a cold one.
var volatile = regexp.MustCompile(`"cached":(true|false),"elapsed_us":[0-9]+,?`)

// serve runs one query request through the handler and returns the
// status and the body without its volatile fields.
func serve(h http.Handler, query string) (int, string) {
	body := fmt.Sprintf(`{"query":%s}`, strconv.Quote(query))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	return rec.Code, volatile.ReplaceAllString(rec.Body.String(), "")
}

// TestTemplateAnswersMatchCold is the byte-identity battery of the
// literal-template plan cache: each serve-adhoc shape with 200 literal
// vectors, in permissive and strict mode, answered by one long-lived
// server (which admits the templates and serves most vectors from them)
// and by a server with caching disabled, whose every answer is a cold
// preparation. Status and body — result, plan notes, error text — must
// match byte for byte.
func TestTemplateAnswersMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			warm := server.New(adhocEngine(t, strict), server.Config{})
			cold := server.New(adhocEngine(t, strict), server.Config{PlanCacheSize: -1})
			seen := map[string]bool{}
			for _, shape := range adhocShapes {
				for _, v := range literalVectors(rng, 200, shape.args) {
					q := fmt.Sprintf(shape.text, v...)
					gotCode, got := serve(warm, q)
					wantCode, want := serve(cold, q)
					if gotCode != wantCode || got != want {
						t.Fatalf("%s %v:\nwarm %d %s\ncold %d %s", shape.name, v, gotCode, got, wantCode, want)
					}
					for _, note := range []string{"index-skip(emp_id", "index-eq(emp_id", "index-skip(emp_salary", "index-range(emp_salary", "join-order(", "type error"} {
						if strings.Contains(got, note) {
							seen[shape.name+" "+note] = true
						}
					}
				}
			}
			metrics := scrapeMetrics(t, warm)
			if hits := metrics["sqlpp_plan_cache_hits_total"]; hits < 600 {
				t.Errorf("%d of 800 ad-hoc texts were served from the cache, want most", hits)
			}
			if metrics["sqlpp_plan_cache_templates_admitted_total"] < 4 {
				t.Errorf("admitted %d templates, want every shape's", metrics["sqlpp_plan_cache_templates_admitted_total"])
			}
			if strict {
				if !seen["adhoc_window type error"] {
					t.Error("no strict-mode type error was compared")
				}
				return
			}
			for _, want := range []string{
				"adhoc_join index-skip(emp_id", "adhoc_join index-eq(emp_id",
				"adhoc_window index-skip(emp_salary", "adhoc_window index-range(emp_salary",
				"adhoc_3way join-order(",
			} {
				if !seen[want] {
					t.Errorf("no vector gave %s: the battery misses a guard's side", want)
				}
			}
			if metrics["sqlpp_plan_cache_template_replans_total"] == 0 {
				t.Error("no guard failed: the battery never crossed a decision")
			}
		})
	}
}

// scrapeMetrics reads the server's /metrics counters.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]int64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err == nil {
			out[name] = n
		}
	}
	return out
}

// TestTemplateBindConcurrent binds one admitted template from many
// goroutines with different literals. The shared plan is written only
// while it is prepared; under -race any later write is a report.
func TestTemplateBindConcurrent(t *testing.T) {
	db := adhocEngine(t, false)
	shape := adhocShapes[1]
	seed := fmt.Sprintf(shape.text, 20000, 20800)
	_, lits, ok := sqlpp.TemplateText(nil, seed)
	if !ok {
		t.Fatal("no template text")
	}
	lit, err := db.Prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := db.PrepareTemplate(seed, lits)
	if err != nil || !tpl.Admits(lit, lits) {
		t.Fatalf("template not admitted: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lo := 10000 + 1000*((w*50+i)%80)
				q := fmt.Sprintf(shape.text, lo, lo+800)
				_, lits, _ := sqlpp.TemplateText(nil, q)
				bound, ok := tpl.Bind(lits)
				if !ok {
					t.Errorf("%s: guard failed on a narrow band", q)
					return
				}
				got, err := bound.Exec()
				if err != nil {
					t.Error(err)
					return
				}
				cold, err := db.Prepare(q)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := cold.Exec()
				if !value.DeepEqual(got, want) || strings.Join(bound.PlanNotes(), ";") != strings.Join(cold.PlanNotes(), ";") {
					t.Errorf("%s: bound answer or notes differ from cold", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTemplateCounters walks one template through its states and reads
// each /metrics counter the walk moves: the first variant marks the
// template seen, the second admits it, the third is a hit, and an id
// whose probe the statistics veto fails the guard and re-plans. A text
// whose template binds a quoted identifier spelling a slot name is
// literal-only.
func TestTemplateCounters(t *testing.T) {
	h := server.New(adhocEngine(t, false), server.Config{})
	shape := adhocShapes[0].text
	for i, step := range []struct {
		id                             int
		cached                         bool
		admitted, literalOnly, replans int64
	}{
		{5, false, 0, 0, 0},
		{6, false, 1, 0, 0},
		{8, true, 1, 0, 0},
		{7, false, 1, 0, 1},
		{9, true, 1, 0, 1},
	} {
		rec := httptest.NewRecorder()
		q := strconv.Quote(fmt.Sprintf(shape, step.id))
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":`+q+`}`)))
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"cached":true`) != step.cached {
			t.Fatalf("step %d (id %d): status %d, want cached=%v: %s", i, step.id, rec.Code, step.cached, rec.Body)
		}
		m := scrapeMetrics(t, h)
		if got := [3]int64{m["sqlpp_plan_cache_templates_admitted_total"], m["sqlpp_plan_cache_templates_literal_only_total"], m["sqlpp_plan_cache_template_replans_total"]}; got != [3]int64{step.admitted, step.literalOnly, step.replans} {
			t.Errorf("step %d (id %d): admitted, literal-only, replans = %v", i, step.id, got)
		}
	}
	for _, lit := range []int{1, 2, 3} {
		q := strconv.Quote(fmt.Sprintf(`SELECT VALUE [x, "#0"] FROM [{'#0': 'a'}] AS x WHERE %d > 0`, lit))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":`+q+`}`)))
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"cached":true`) {
			t.Fatalf("literal %d: status %d, want a cold answer: %s", lit, rec.Code, rec.Body)
		}
	}
	if n := scrapeMetrics(t, h)["sqlpp_plan_cache_templates_literal_only_total"]; n != 1 {
		t.Errorf("literal-only templates = %d, want 1", n)
	}
}
