package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/server"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// newTestServer starts the service on an ephemeral port.
func newTestServer(t *testing.T, opts *sqlpp.Options, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	svc := server.New(sqlpp.New(opts), cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

type queryReply struct {
	Result    json.RawMessage `json:"result"`
	Cached    bool            `json:"cached"`
	ElapsedUS int64           `json:"elapsed_us"`
	Plan      []string        `json:"plan"`
	Error     string          `json:"error"`
}

// postQuery sends a query request and decodes the reply.
func postQuery(t *testing.T, base string, body string) (int, queryReply) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return resp.StatusCode, out
}

// ingest posts a collection body.
func ingest(t *testing.T, base, name, format, body string) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/collections/%s?format=%s", base, name, format)
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest %s: status %d: %s", name, resp.StatusCode, b)
	}
}

// sionResult parses a format:"sion" query reply back into a value.
func sionResult(t *testing.T, raw json.RawMessage) value.Value {
	t.Helper()
	var text string
	if err := json.Unmarshal(raw, &text); err != nil {
		t.Fatalf("sion result not a JSON string: %v", err)
	}
	v, err := sion.Parse(text)
	if err != nil {
		t.Fatalf("parse result %q: %v", text, err)
	}
	return v
}

// TestQueryEndToEnd is the acceptance walk: start the server on an
// ephemeral port, ingest a paper listing, run its query twice over
// HTTP, and check that the second run hits the plan cache while both
// return the paper's result.
func TestQueryEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, nil, server.Config{})

	// Listing 1 data, over the wire in the paper's notation.
	ingest(t, ts.URL, "hr.emp_nest_tuples", "sion", compat.EmpNestTuples)

	req := `{"query": "SELECT e.name AS emp_name, p.name AS proj_name FROM hr.emp_nest_tuples AS e, e.projects AS p WHERE p.name LIKE '%Security%'", "format": "sion"}`
	want := sion.MustParse(`{{
	  {'emp_name': 'Bob Smith', 'proj_name': 'OLAP Security'},
	  {'emp_name': 'Bob Smith', 'proj_name': 'OLTP Security'},
	  {'emp_name': 'Jane Smith', 'proj_name': 'OLTP Security'}
	}}`)

	status, first := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first query: status %d (%s)", status, first.Error)
	}
	if first.Cached {
		t.Error("first execution claims a cache hit")
	}
	if got := sionResult(t, first.Result); !value.Equivalent(want, got) {
		t.Errorf("first result mismatch:\n got %s\nwant %s", got, want)
	}

	hitsBefore := svc.Cache().Hits()
	status, second := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second query: status %d (%s)", status, second.Error)
	}
	if !second.Cached {
		t.Error("second execution did not hit the plan cache")
	}
	if got := sionResult(t, second.Result); !value.Equivalent(want, got) {
		t.Errorf("second result mismatch:\n got %s\nwant %s", got, want)
	}
	if hits := svc.Cache().Hits(); hits != hitsBefore+1 {
		t.Errorf("cache hits = %d, want %d", hits, hitsBefore+1)
	}

	// The counters surface on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sqlpp_requests_total 2",
		"sqlpp_plan_cache_hits_total 1",
		"sqlpp_plan_cache_misses_total 1",
		"sqlpp_plan_cache_entries 1",
		"sqlpp_ingests_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestQueryTimeout proves cancellation reaches the plan loops: a large
// cross join with a 50ms deadline must fail well inside a second
// instead of grinding through ~9M rows.
func TestQueryTimeout(t *testing.T) {
	svc, ts := newTestServer(t, nil, server.Config{})

	big := make(value.Bag, 3000)
	for i := range big {
		big[i] = value.Int(int64(i))
	}
	if err := svc.Engine().Register("big1", big); err != nil {
		t.Fatal(err)
	}
	if err := svc.Engine().Register("big2", big); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	status, reply := postQuery(t, ts.URL,
		`{"query": "SELECT VALUE a + b FROM big1 AS a, big2 AS b WHERE a + b < 0", "timeout_ms": 50}`)
	elapsed := time.Since(start)

	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want %d", status, reply.Error, http.StatusGatewayTimeout)
	}
	if !strings.Contains(reply.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", reply.Error)
	}
	if elapsed >= time.Second {
		t.Errorf("timed-out query took %s, want < 1s", elapsed)
	}
	if svc.Metrics().Timeouts.Load() != 1 {
		t.Errorf("timeouts counter = %d, want 1", svc.Metrics().Timeouts.Load())
	}
}

// TestIngestFormats loads the same rows as CSV, JSON, and JSON Lines
// and checks a query sees identical results regardless of wire format.
func TestIngestFormats(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})

	ingest(t, ts.URL, "emp_csv", "csv", "name,salary\nAda,120\nBob,90\n")
	ingest(t, ts.URL, "emp_json", "json", `[{"name":"Ada","salary":120},{"name":"Bob","salary":90}]`)
	ingest(t, ts.URL, "emp_jsonl", "jsonl", `{"name":"Ada","salary":120}
{"name":"Bob","salary":90}`)

	want := sion.MustParse(`{{ 'Ada' }}`)
	for _, coll := range []string{"emp_csv", "emp_json", "emp_jsonl"} {
		req := fmt.Sprintf(`{"query": "SELECT VALUE e.name FROM %s AS e WHERE e.salary > 100", "format": "sion"}`, coll)
		status, reply := postQuery(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", coll, status, reply.Error)
		}
		if got := sionResult(t, reply.Result); !value.Equivalent(want, got) {
			t.Errorf("%s: got %s, want %s", coll, got, want)
		}
	}

	// The collection listing names all three.
	resp, err := http.Get(ts.URL + "/v1/collections")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Collections []string `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Collections) != 3 {
		t.Errorf("collections = %v, want 3 names", listing.Collections)
	}
}

// TestIngestPurgesPlanCache: re-registering a collection must not serve
// results from a plan resolved against the old name set.
func TestIngestPurgesPlanCache(t *testing.T) {
	svc, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "nums", "sion", `{{ 1, 2, 3 }}`)

	req := `{"query": "SELECT VALUE n FROM nums AS n", "format": "sion"}`
	if status, reply := postQuery(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	if svc.Cache().Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", svc.Cache().Len())
	}

	ingest(t, ts.URL, "nums", "sion", `{{ 7 }}`)
	if svc.Cache().Len() != 0 {
		t.Errorf("cache not purged after ingest: %d entries", svc.Cache().Len())
	}
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	if got, want := sionResult(t, reply.Result), sion.MustParse(`{{ 7 }}`); !value.Equivalent(want, got) {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestQueryParams exercises parameterized requests end to end,
// including nested JSON parameter values.
func TestQueryParams(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "emp", "sion", compat.EmpFlat)

	req := `{"query": "SELECT VALUE e.name FROM emp AS e WHERE e.salary >= $min AND e.title = $title", "params": {"$min": 110000, "$title": "Engineer"}, "format": "sion"}`
	status, reply := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	if got, want := sionResult(t, reply.Result), sion.MustParse(`{{ 'Clara' }}`); !value.Equivalent(want, got) {
		t.Errorf("got %s, want %s", got, want)
	}

	// Same query text with different params must hit the cached plan.
	req2 := `{"query": "SELECT VALUE e.name FROM emp AS e WHERE e.salary >= $min AND e.title = $title", "params": {"$min": 150000, "$title": "Manager"}, "format": "sion"}`
	status, reply = postQuery(t, ts.URL, req2)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	if !reply.Cached {
		t.Error("parameterized re-execution missed the plan cache")
	}
	if got, want := sionResult(t, reply.Result), sion.MustParse(`{{ 'Dan', 'Eve' }}`); !value.Equivalent(want, got) {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestPerRequestOptions checks that options fork the engine per request
// and partition the plan cache (compat rewrites differ).
func TestPerRequestOptions(t *testing.T) {
	svc, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "emp", "sion", `{{ {'name':'Ada','salary':1} }}`)

	base := `"query": "SELECT e.name FROM emp AS e", "format": "sion"`
	if status, r := postQuery(t, ts.URL, `{`+base+`}`); status != http.StatusOK {
		t.Fatalf("plain: %d (%s)", status, r.Error)
	}
	status, r := postQuery(t, ts.URL, `{`+base+`, "options": {"compat": true}}`)
	if status != http.StatusOK {
		t.Fatalf("compat: %d (%s)", status, r.Error)
	}
	if r.Cached {
		t.Error("compat request hit the non-compat plan")
	}
	if svc.Cache().Len() != 2 {
		t.Errorf("cache entries = %d, want 2 (one per options fingerprint)", svc.Cache().Len())
	}
}

// TestRetiredOptionsIgnored pins mixed-version fleet behaviour during a
// rollout: a client, or an older coordinator's shard wire request, still
// carrying the retired execution-strategy options is accepted, and the
// options select nothing — the request runs (and caches) as the plain one.
func TestRetiredOptionsIgnored(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "emp", "sion", `{{ {'name':'Ada','salary':1} }}`)

	base := `"query": "SELECT e.name FROM emp AS e", "format": "sion"`
	status, plain := postQuery(t, ts.URL, `{`+base+`}`)
	if status != http.StatusOK {
		t.Fatalf("plain: %d (%s)", status, plain.Error)
	}
	for name, options := range map[string]string{
		"client":     `{"no_compile": true, "no_stats": true, "materialize_clauses": true}`,
		"shard wire": `{"compat": false, "strict": false, "disable_optimizer": false, "no_compile": true, "no_stats": true, "parallelism": 0, "max_rows": 0, "max_bytes": 0}`,
	} {
		status, r := postQuery(t, ts.URL, `{`+base+`, "options": `+options+`}`)
		if status != http.StatusOK {
			t.Fatalf("%s request with retired options: %d (%s)", name, status, r.Error)
		}
		if !r.Cached {
			t.Errorf("%s: retired options selected a different plan-cache entry", name)
		}
		if fmt.Sprint(r.Plan) != fmt.Sprint(plain.Plan) {
			t.Errorf("%s: retired options changed the plan: %v, want %v", name, r.Plan, plain.Plan)
		}
		if got, want := sionResult(t, r.Result), sionResult(t, plain.Result); !value.Equivalent(got, want) {
			t.Errorf("%s: retired options changed the result: %s, want %s", name, got, want)
		}
	}
}

// TestConcurrentQueries hammers one cached plan through the gate from
// many goroutines; run under -race this is the service-level shared-
// Prepared soundness check.
func TestConcurrentQueries(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{MaxConcurrent: 4})
	ingest(t, ts.URL, "emp", "sion", compat.EmpFlat)

	req := `{"query": "SELECT VALUE e.name FROM emp AS e WHERE e.salary > 100000", "format": "sion"}`
	want := sion.MustParse(`{{ 'Clara', 'Dan', 'Eve' }}`)

	const workers = 16
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(req))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var reply queryReply
				if err := json.Unmarshal(body, &reply); err != nil {
					errs <- err
					return
				}
				var text string
				if err := json.Unmarshal(reply.Result, &text); err != nil {
					errs <- err
					return
				}
				got, err := sion.Parse(text)
				if err != nil {
					errs <- err
					return
				}
				if !value.Equivalent(want, got) {
					errs <- fmt.Errorf("got %s, want %s", got, want)
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

// TestBadRequests covers the error statuses.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, &sqlpp.Options{StopOnError: true}, server.Config{})

	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"not json", `SELECT 1`, http.StatusBadRequest},
		{"parse error", `{"query": "SELECT FROM WHERE"}`, http.StatusBadRequest},
		{"unknown name", `{"query": "SELECT VALUE x FROM nope AS x"}`, http.StatusBadRequest},
		{"bad format", `{"query": "SELECT VALUE 1", "format": "xml"}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		status, reply := postQuery(t, ts.URL, c.body)
		if status != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, status, reply.Error, c.status)
		}
		if reply.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// Unknown ingest format.
	resp, err := http.Post(ts.URL+"/v1/collections/x?format=xml", "", strings.NewReader("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ingest format: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthz checks the liveness probe shape.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status      string `json:"status"`
		Collections int    `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q", body.Status)
	}
}

// TestJSONResultFormat checks the default JSON encoding round-trips
// through encoding/json (the API contract for programmatic clients).
func TestJSONResultFormat(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "emp", "sion", `{{ {'name':'Ada','salary':120} }}`)

	status, reply := postQuery(t, ts.URL, `{"query": "SELECT e.name FROM emp AS e"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	var rows []map[string]any
	if err := json.Unmarshal(reply.Result, &rows); err != nil {
		t.Fatalf("result is not a JSON array: %v (%s)", err, reply.Result)
	}
	if len(rows) != 1 || rows[0]["name"] != "Ada" {
		t.Errorf("rows = %v", rows)
	}
}

// TestPlanNotesAndOptimizerOptions checks the physical-optimizer
// surface of the API: join queries report their plan notes, the
// disable_optimizer override suppresses them, and the two configurations
// never share a plan-cache entry.
func TestPlanNotesAndOptimizerOptions(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "emp", "sion", `{{ {'id':1,'dno':1}, {'id':2,'dno':2} }}`)
	ingest(t, ts.URL, "dept", "sion", `{{ {'dno':1,'name':'eng'} }}`)

	join := `SELECT e.id AS id, d.name AS dn FROM emp AS e JOIN dept AS d ON e.dno = d.dno`
	status, reply := postQuery(t, ts.URL,
		`{"query": "`+join+`", "format": "sion"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, reply.Error)
	}
	if len(reply.Plan) == 0 {
		t.Error("an equi-join should report plan notes")
	}
	hasHash := false
	for _, n := range reply.Plan {
		if strings.HasPrefix(n, "hash-join(") {
			hasHash = true
		}
	}
	if !hasHash {
		t.Errorf("plan notes missing hash-join: %v", reply.Plan)
	}

	status, off := postQuery(t, ts.URL,
		`{"query": "`+join+`", "format": "sion", "options": {"disable_optimizer": true}}`)
	if status != http.StatusOK {
		t.Fatalf("disable_optimizer: status %d (%s)", status, off.Error)
	}
	if len(off.Plan) != 0 {
		t.Errorf("disable_optimizer should suppress plan notes, got %v", off.Plan)
	}
	if off.Cached {
		t.Error("optimizer-off request must not reuse the optimizer-on plan")
	}
	if got, want := sionResult(t, off.Result), sionResult(t, reply.Result); !value.Equivalent(got, want) {
		t.Errorf("optimizer changed the result:\n  on  %s\n  off %s", want, got)
	}

	status, par := postQuery(t, ts.URL,
		`{"query": "`+join+`", "format": "sion", "options": {"parallelism": 2}}`)
	if status != http.StatusOK {
		t.Fatalf("parallelism: status %d (%s)", status, par.Error)
	}
	if par.Cached {
		t.Error("a different parallelism must key a different plan")
	}
}
