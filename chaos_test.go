//go:build faultinject

package sqlpp_test

// Chaos battery (build with -tags faultinject, run with -race). Every
// injection point is swept with error, panic, and stall actions; each
// fault must degrade into a clean, typed, per-query error — never a
// process exit, a goroutine leak, or a changed result on retry. The
// server battery drives the paper listings concurrently through an
// httptest server with faults armed at the plan-cache and ingest
// points: un-faulted responses must stay byte-identical to the
// fault-free baseline.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/server"
)

// chaosEngine builds an engine over enough rows to cross the parallel
// scan threshold, plus a small join side.
func chaosEngine(t testing.TB, lim sqlpp.Limits) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(&sqlpp.Options{Parallelism: 4, Limits: lim})
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'id': %d, 'deptno': %d}", i, i%16)
	}
	sb.WriteString("}}")
	if err := db.RegisterSION("emp", sb.String()); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	sb.WriteString("{{")
	for i := 0; i < 16; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'dno': %d, 'dn': 'D%d'}", i, i)
	}
	sb.WriteString("}}")
	if err := db.RegisterSION("dept", sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitGoroutines polls until the goroutine count drops back to base (or
// the reap window closes).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, after)
	}
}

// TestChaosEngineSweep arms each engine-side injection point with an
// error and then a panic action. Every faulted run must fail with the
// right typed error, and after disarming the same query must reproduce
// its baseline byte-for-byte.
func TestChaosEngineSweep(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	cases := []struct {
		point string
		query string
	}{
		// Parallelism 4 over 3000 rows: a plain scan runs partitioned, so
		// scan-next fires inside workers; the correlated filter below keeps
		// the join sequential for the hash-build point.
		{faultinject.ScanNext, `SELECT VALUE COUNT(*) FROM dept AS d`},
		{faultinject.HashBuildInsert, `SELECT e.id AS id, d.dn AS dn FROM dept AS d, emp AS e WHERE e.deptno = d.dno AND e.id < 40`},
		{faultinject.WorkerStart, `SELECT VALUE COUNT(*) FROM emp AS e`},
	}
	db := chaosEngine(t, sqlpp.Limits{})
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		faultinject.Reset()
		baseline, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%s baseline: %v", tc.point, err)
		}

		// Error action: the injected error propagates as this query's
		// ordinary failure, rooted in ErrInjected.
		faultinject.Set(tc.point, 0, 1, 1, faultinject.Action{Err: faultinject.ErrInjected})
		if _, err := db.Query(tc.query); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s error action: want ErrInjected, got %v", tc.point, err)
		}
		if faultinject.Fired(tc.point) == 0 {
			t.Errorf("%s error action: point never fired — query does not reach it", tc.point)
		}

		// Panic action: contained into a *PanicError, process intact.
		faultinject.Reset()
		faultinject.Set(tc.point, 0, 1, 1, faultinject.Action{Panic: "chaos"})
		_, err = db.Query(tc.query)
		var pe *sqlpp.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s panic action: want PanicError, got %v", tc.point, err)
		}

		// Disarmed retry: bit-identical to the baseline.
		faultinject.Reset()
		again, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%s retry after reset: %v", tc.point, err)
		}
		if baseline.String() != again.String() {
			t.Errorf("%s: retry diverges from baseline:\n  before %s\n  after  %s",
				tc.point, baseline, again)
		}
	}

	// One Prepared with a correlated sub-block, whose run state is reused
	// across the outer rows of an execution. The outer scan over dept
	// fires scan-next once per department and the sub-block's scan over
	// emp once per employee, so the 21st firing is inside the sub-block,
	// mid-invocation. The disarmed retry on the same Prepared must
	// reproduce the baseline.
	faultinject.Reset()
	p, err := db.Prepare(`SELECT d.dno AS dno, (SELECT VALUE e.id FROM emp AS e WHERE e.deptno = d.dno AND e.id < 100) AS ids FROM dept AS d`)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := p.Exec()
	if err != nil {
		t.Fatalf("sub-block baseline: %v", err)
	}
	for _, action := range []faultinject.Action{{Err: faultinject.ErrInjected}, {Panic: "chaos"}} {
		faultinject.Reset()
		faultinject.Set(faultinject.ScanNext, 20, 1, 1, action)
		_, err := p.Exec()
		var pe *sqlpp.PanicError
		if action.Err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("sub-block error action: want ErrInjected, got %v", err)
		}
		if action.Panic != "" && !errors.As(err, &pe) {
			t.Errorf("sub-block panic action: want PanicError, got %v", err)
		}
		if faultinject.Fired(faultinject.ScanNext) == 0 {
			t.Errorf("sub-block %+v: scan-next never fired", action)
		}
		faultinject.Reset()
		again, err := p.Exec()
		if err != nil {
			t.Fatalf("sub-block retry after reset: %v", err)
		}
		if baseline.String() != again.String() {
			t.Errorf("sub-block retry diverges from baseline:\n  before %s\n  after  %s", baseline, again)
		}
	}
	waitGoroutines(t, base)
}

// TestChaosIndexSweep arms the index-probe injection point under
// indexed equality and range queries, and the index-build point under
// CreateIndex. Probe faults must surface as this query's typed error
// (or a contained panic) and vanish on disarmed retry; a build fault
// must fail CreateIndex cleanly while queries keep producing the
// baseline via the scan path, and a disarmed rebuild must restore
// byte-identical indexed results.
func TestChaosIndexSweep(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	db := chaosEngine(t, sqlpp.Limits{})
	base := runtime.NumGoroutine()

	queries := []struct {
		name, query string
	}{
		{"equality", `SELECT VALUE e.deptno FROM emp AS e WHERE e.id = 1234`},
		{"range", `SELECT VALUE e.id FROM emp AS e WHERE e.id >= 100 AND e.id < 140`},
	}
	// Fault-free scan baselines, taken before any index exists.
	baseline := make(map[string]string, len(queries))
	for _, q := range queries {
		v, err := db.Query(q.query)
		if err != nil {
			t.Fatalf("%s baseline: %v", q.name, err)
		}
		baseline[q.name] = v.String()
	}

	// Build fault: CreateIndex fails typed, no index is installed, and
	// the queries keep answering from the scan path unchanged.
	faultinject.Set(faultinject.IndexBuildInsert, 0, 1, 1, faultinject.Action{Err: faultinject.ErrInjected})
	if err := db.CreateIndex("ix_id", "emp", "id", "hash"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("build error action: want ErrInjected, got %v", err)
	}
	if faultinject.Fired(faultinject.IndexBuildInsert) == 0 {
		t.Error("build error action: point never fired")
	}
	if n := len(db.Indexes()); n != 0 {
		t.Errorf("failed build left %d indexes installed", n)
	}
	faultinject.Reset()
	for _, q := range queries {
		v, err := db.Query(q.query)
		if err != nil {
			t.Fatalf("%s after failed build: %v", q.name, err)
		}
		if v.String() != baseline[q.name] {
			t.Errorf("%s after failed build diverges from baseline", q.name)
		}
	}

	// Disarmed rebuild succeeds; indexed results stay byte-identical.
	if err := db.CreateIndex("ix_id", "emp", "id", "ordered"); err != nil {
		t.Fatalf("disarmed CreateIndex: %v", err)
	}
	for _, q := range queries {
		baselineRun, err := db.Query(q.query)
		if err != nil {
			t.Fatalf("%s indexed baseline: %v", q.name, err)
		}
		if baselineRun.String() != baseline[q.name] {
			t.Fatalf("%s: indexed result diverges from scan baseline:\n  scan  %s\n  index %s",
				q.name, baseline[q.name], baselineRun)
		}

		// Probe error action: typed, attributable failure.
		faultinject.Set(faultinject.IndexProbeNext, 0, 1, 1, faultinject.Action{Err: faultinject.ErrInjected})
		if _, err := db.Query(q.query); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s probe error action: want ErrInjected, got %v", q.name, err)
		}
		if faultinject.Fired(faultinject.IndexProbeNext) == 0 {
			t.Errorf("%s probe error action: point never fired — query is not using the index", q.name)
		}

		// Probe panic action: contained into a *PanicError.
		faultinject.Reset()
		faultinject.Set(faultinject.IndexProbeNext, 0, 1, 1, faultinject.Action{Panic: "chaos"})
		_, err = db.Query(q.query)
		var pe *sqlpp.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s probe panic action: want PanicError, got %v", q.name, err)
		}

		// Disarmed retry: bit-identical to the scan baseline.
		faultinject.Reset()
		again, err := db.Query(q.query)
		if err != nil {
			t.Fatalf("%s retry after reset: %v", q.name, err)
		}
		if again.String() != baseline[q.name] {
			t.Errorf("%s: disarmed retry diverges from baseline:\n  before %s\n  after  %s",
				q.name, baseline[q.name], again)
		}
	}
	waitGoroutines(t, base)
}

// TestChaosStallHitsWallBudget: a stall injected into the scan must be
// caught by the governor's wall-time budget, not hang the query.
func TestChaosStallHitsWallBudget(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	db := chaosEngine(t, sqlpp.Limits{MaxWallTime: 30 * time.Millisecond})
	faultinject.Set(faultinject.ScanNext, 0, 1, 1, faultinject.Action{Sleep: 100 * time.Millisecond})
	start := time.Now()
	_, err := db.Query(`SELECT e.id AS id, d.dn AS dn FROM dept AS d, emp AS e WHERE e.deptno = d.dno AND e.id < 2000`)
	var re *sqlpp.ResourceError
	if !errors.As(err, &re) || re.Kind != sqlpp.ResourceTime {
		t.Fatalf("want wall-time ResourceError after injected stall, got %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("stalled query not stopped promptly: %v", e)
	}
}

type chaosResp struct {
	status int
	result string
	errMsg string
}

func postQuery(t *testing.T, client *http.Client, url string, body map[string]any) chaosResp {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("bad response body %q: %v", raw, err)
	}
	return chaosResp{status: resp.StatusCode, result: string(decoded.Result), errMsg: decoded.Error}
}

// paperRuns expands the paper listings into (case, compat-mode) runs.
func paperRuns() []struct {
	c      *compat.Case
	compat bool
} {
	var runs []struct {
		c      *compat.Case
		compat bool
	}
	for _, c := range compat.PaperCases() {
		for _, flag := range c.Modes() {
			runs = append(runs, struct {
				c      *compat.Case
				compat bool
			}{c, flag})
		}
	}
	return runs
}

// TestChaosServerPaperBattery drives every paper listing concurrently
// through an httptest server while seeded fault schedules fire at the
// plan-cache-get and ingest-decode points. Each response must be either
// a clean injected-fault error or byte-identical to the fault-free
// baseline; after disarming, a full retry must reproduce the baseline.
func TestChaosServerPaperBattery(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	db := sqlpp.New(nil)
	for _, r := range paperRuns() {
		for name, v := range r.c.Data {
			if err := db.Register(name, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc := server.New(db, server.Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	runs := paperRuns()
	reqFor := func(i int) map[string]any {
		r := runs[i]
		return map[string]any{
			"query": r.c.Query,
			"options": map[string]any{
				"compat": r.compat,
				"strict": r.c.Strict,
			},
		}
	}

	// Fault-free baseline, one response per run.
	baseline := make([]chaosResp, len(runs))
	for i := range runs {
		baseline[i] = postQuery(t, client, ts.URL, reqFor(i))
	}

	base := runtime.NumGoroutine()
	faultinject.Schedule(20260805, faultinject.PlanCacheGet, faultinject.IngestDecode)

	var wg sync.WaitGroup
	const workers = 8
	errCh := make(chan string, workers*len(runs)*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range runs {
					got := postQuery(t, client, ts.URL, reqFor(i))
					switch {
					case got == baseline[i]:
						// Un-faulted request: identical to the baseline.
					case strings.Contains(got.errMsg, "injected fault"):
						// Faulted request: clean, attributable error.
					default:
						errCh <- fmt.Sprintf("%s(compat=%v): unexpected response %+v (baseline %+v)",
							runs[i].c.Name, runs[i].compat, got, baseline[i])
					}
				}
				// Interleave ingests so ingest-decode faults fire under load;
				// names are private to this worker, so queries never see them.
				body := strings.NewReader(`{{ {'w': 1} }}`)
				resp, err := client.Post(
					fmt.Sprintf("%s/v1/collections/chaos_w%d?format=sion", ts.URL, w),
					"application/sion", body)
				if err != nil {
					errCh <- fmt.Sprintf("ingest: %v", err)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 300 && !strings.Contains(string(raw), "injected fault") {
					errCh <- fmt.Sprintf("ingest: status %d body %s", resp.StatusCode, raw)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
	if faultinject.Fired(faultinject.PlanCacheGet) == 0 {
		t.Error("plan-cache-get never fired: the battery exercised nothing")
	}

	// Disarmed: every run reproduces its fault-free baseline exactly.
	faultinject.Reset()
	for i := range runs {
		if got := postQuery(t, client, ts.URL, reqFor(i)); got != baseline[i] {
			t.Errorf("%s(compat=%v): post-chaos retry diverges: %+v vs %+v",
				runs[i].c.Name, runs[i].compat, got, baseline[i])
		}
	}
	// Pooled keep-alive connections are the client's, not the server's —
	// drop them before the leak check so only server goroutines count.
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestChaosStatsSweep arms the statistics-build injection point. A
// failed statistics build must never fail registration or ingest —
// the collection lands, the snapshot simply carries no statistics —
// and planning must degrade to the heuristic order with results
// byte-identical to a statistics-driven engine's. Disarmed re-ingest
// restores cost-based planning.
func TestChaosStatsSweep(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	mkRows := func(n int, key string) string {
		var sb strings.Builder
		sb.WriteString("{{")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "{'%s': %d}", key, i)
		}
		sb.WriteString("}}")
		return sb.String()
	}
	load := func(t *testing.T, db *sqlpp.Engine) {
		t.Helper()
		for _, c := range []struct {
			name, key string
			n         int
		}{{"l", "x", 3000}, {"m", "y", 300}, {"s", "j", 10}} {
			if err := db.RegisterSION(c.name, mkRows(c.n, c.key)); err != nil {
				t.Fatalf("register %s: %v", c.name, err)
			}
		}
	}
	query := `SELECT VALUE {'x': l.x, 'y': m.y} FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j`
	hasNote := func(p *sqlpp.Prepared, prefix string) bool {
		for _, n := range p.PlanNotes() {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}

	// Fault-free baseline: statistics present, join reordered.
	healthy := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	load(t, healthy)
	if len(healthy.Stats()) != 3 {
		t.Fatalf("healthy engine tracks %d stats snapshots, want 3", len(healthy.Stats()))
	}
	hp, err := healthy.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(hp, "join-order(") {
		t.Fatalf("healthy plan not reordered: %v", hp.PlanNotes())
	}
	baseline, err := hp.Exec()
	if err != nil {
		t.Fatal(err)
	}

	// Armed at every sketch add: registration must still succeed, with
	// the statistics dropped and planning back on the heuristic order.
	faultinject.Set(faultinject.StatsSketchAdd, 0, 1, 1<<40, faultinject.Action{Err: faultinject.ErrInjected})
	degraded := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	load(t, degraded)
	if faultinject.Fired(faultinject.StatsSketchAdd) == 0 {
		t.Fatal("stats-sketch-add never fired during registration")
	}
	if got := len(degraded.Stats()); got != 0 {
		t.Fatalf("faulted engine still tracks %d stats snapshots, want 0", got)
	}
	dp, err := degraded.Prepare(query)
	if err != nil {
		t.Fatalf("prepare without statistics: %v", err)
	}
	if hasNote(dp, "join-order(") || hasNote(dp, "est-rows(") {
		t.Fatalf("stats-less plan carries cost notes: %v", dp.PlanNotes())
	}
	dres, err := dp.Exec()
	if err != nil {
		t.Fatalf("exec without statistics: %v", err)
	}
	if dres.String() != baseline.String() {
		t.Fatalf("stats-less result diverges from baseline:\n  baseline %s\n  degraded %s", baseline, dres)
	}

	// A faulted incremental extend must keep the append (rows land) and
	// drop the snapshot, not corrupt it.
	faultinject.Reset()
	appendee := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	load(t, appendee)
	faultinject.Set(faultinject.StatsSketchAdd, 0, 1, 1<<40, faultinject.Action{Err: faultinject.ErrInjected})
	if err := appendee.AppendSION("s", "{{{'j': 10}}}"); err != nil {
		t.Fatalf("append under stats fault: %v", err)
	}
	if got := len(appendee.Stats()); got != 2 {
		t.Fatalf("after faulted append: %d stats snapshots, want 2 (s dropped)", got)
	}
	v, err := appendee.Query(`SELECT VALUE COUNT(*) FROM s AS s`)
	if err != nil || v.String() != "{{11}}" {
		t.Fatalf("faulted append lost rows: %s, %v", v, err)
	}

	// Disarmed: a fresh ingest is statistics-driven again and agrees
	// with the baseline byte-for-byte.
	faultinject.Reset()
	recovered := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	load(t, recovered)
	rp, err := recovered.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(rp, "join-order(") {
		t.Fatalf("recovered plan not reordered: %v", rp.PlanNotes())
	}
	rres, err := rp.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if rres.String() != baseline.String() {
		t.Fatalf("recovered result diverges:\n  baseline  %s\n  recovered %s", baseline, rres)
	}
}
