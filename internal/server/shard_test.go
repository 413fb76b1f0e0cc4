package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/server"
	"sqlpp/internal/shard"
)

// ordersRows is the `orders` collection newShardFleet distributes.
const ordersRows = `[
	{'g': 'a', 'v': 1}, {'g': 'b', 'v': 2}, {'g': 'a', 'v': 3},
	{'g': 'c', 'v': 4}, {'g': 'b', 'v': 5}, {'g': 'a', 'v': 6},
	{'g': 'c', 'v': 7}, {'g': 'b', 'v': 8}, {'g': 'a', 'v': 9}
]`

// newShardFleet spins up n data-node servers over httptest and returns
// a coordinator speaking the HTTP/JSON protocol to them, with `orders`
// range-partitioned across the fleet.
func newShardFleet(t *testing.T, n int, policy shard.Policy) (*shard.Coordinator, []*httptest.Server) {
	t.Helper()
	execs := make([]shard.Executor, n)
	nodes := make([]*httptest.Server, n)
	for i := range execs {
		node := server.New(sqlpp.New(nil), server.Config{})
		ts := httptest.NewServer(node)
		t.Cleanup(ts.Close)
		nodes[i] = ts
		execs[i] = shard.NewHTTP(fmt.Sprintf("n%d", i), ts.URL, nil)
	}
	co := shard.NewCoordinator(sqlpp.New(nil), policy, execs...)
	if err := co.Distribute("orders", sqlpp.MustParseValue(ordersRows), shard.Spec{}); err != nil {
		t.Fatal(err)
	}
	return co, nodes
}

// postShardQuery posts a /v1/query body and decodes the response.
func postShardQuery(t *testing.T, url string, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestCoordinatorModeOverHTTP runs the full wire path: coordinator
// server → HTTP data nodes → scatter → merge, and checks the response
// matches single-node execution and carries the scatter annotations.
func TestCoordinatorModeOverHTTP(t *testing.T) {
	co, _ := newShardFleet(t, 3, shard.Policy{})
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()

	const query = "SELECT x.g AS g, SUM(x.v) AS s, AVG(x.v) AS a FROM orders AS x GROUP BY x.g AS g ORDER BY g"
	single := sqlpp.New(nil)
	if err := single.Register("orders", sqlpp.MustParseValue(ordersRows)); err != nil {
		t.Fatal(err)
	}
	want, err := single.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	status, out := postShardQuery(t, coord.URL, map[string]any{"query": query, "format": "sion"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if got := out["result"]; got != want.String() {
		t.Fatalf("result %v, want %s", got, want.String())
	}
	if out["class"] != "group" || out["sharded"] != "orders" {
		t.Fatalf("scatter annotations missing: class=%v sharded=%v", out["class"], out["sharded"])
	}
	if _, has := out["missing_shards"]; has {
		t.Fatalf("complete result reported missing shards: %v", out["missing_shards"])
	}

	// EXPLAIN ANALYZE composes the scatter tree over the wire.
	status, out = postShardQuery(t, coord.URL, map[string]any{"query": query, "explain": "analyze"})
	if status != http.StatusOK {
		t.Fatalf("explain status %d: %v", status, out)
	}
	stats, _ := out["stats"].(map[string]any)
	if stats == nil || stats["op"] != "scatter-gather" {
		t.Fatalf("explain stats root = %v, want scatter-gather", out["stats"])
	}
}

// TestCoordinatorOutputBudgetOverHTTP: a request's max_rows budget holds
// through the coordinator as it does on one node. A scan of the 9 orders
// under max_rows 5 answers 422 with the same resource kind and limit
// both ways; neither may answer the whole bag.
func TestCoordinatorOutputBudgetOverHTTP(t *testing.T) {
	co, _ := newShardFleet(t, 3, shard.Policy{})
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()
	single := sqlpp.New(nil)
	if err := single.Register("orders", sqlpp.MustParseValue(ordersRows)); err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(server.New(single, server.Config{}))
	defer node.Close()

	body := map[string]any{"query": "SELECT VALUE x FROM orders AS x", "options": map[string]any{"max_rows": 5}}
	resource := func(name, url string) map[string]any {
		status, out := postShardQuery(t, url, body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%v), want 422", name, status, out)
		}
		re, _ := out["resource"].(map[string]any)
		if re == nil {
			t.Fatalf("%s: no resource detail in %v", name, out)
		}
		return re
	}
	want, got := resource("one node", node.URL), resource("coordinator", coord.URL)
	if got["kind"] != want["kind"] || got["limit"] != want["limit"] {
		t.Errorf("coordinator tripped %v at limit %v, one node %v at limit %v", got["kind"], got["limit"], want["kind"], want["limit"])
	}
	if want["kind"] != string(sqlpp.ResourceRows) || want["limit"] != float64(5) {
		t.Errorf("one node tripped %v at limit %v, want %s at 5", want["kind"], want["limit"], sqlpp.ResourceRows)
	}
}

// TestCoordinatorPartialPolicyOverHTTP kills one data node and checks
// both failure policies: partial answers with the missing_shards
// annotation, fail surfaces a 502 with a typed shard error.
func TestCoordinatorPartialPolicyOverHTTP(t *testing.T) {
	pol := shard.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, BreakerThreshold: -1}
	co, nodes := newShardFleet(t, 3, pol)
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()
	nodes[1].Close() // fault one data node: connection refused, transient

	const query = "SELECT x.g AS g, COUNT(*) AS c FROM orders AS x GROUP BY x.g AS g ORDER BY g"
	status, out := postShardQuery(t, coord.URL, map[string]any{"query": query, "on_failure": "partial"})
	if status != http.StatusOK {
		t.Fatalf("partial status %d: %v", status, out)
	}
	missing, _ := out["missing_shards"].([]any)
	if len(missing) != 1 || missing[0] != "n1" {
		t.Fatalf("missing_shards = %v, want [n1]", out["missing_shards"])
	}

	status, out = postShardQuery(t, coord.URL, map[string]any{"query": query, "on_failure": "fail"})
	if status != http.StatusBadGateway {
		t.Fatalf("fail-fast status %d, want 502: %v", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "n1") {
		t.Fatalf("error %q does not name the failed shard", out["error"])
	}

	status, out = postShardQuery(t, coord.URL, map[string]any{"query": query, "on_failure": "bogus"})
	if status != http.StatusBadRequest {
		t.Fatalf("bogus policy status %d, want 400: %v", status, out)
	}
}

// TestCoordinatorReadyzAndMetrics checks the fleet-aggregated readiness
// probe and the per-shard fault-tolerance counters, with one node down.
func TestCoordinatorReadyzAndMetrics(t *testing.T) {
	pol := shard.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, BreakerThreshold: -1}
	co, nodes := newShardFleet(t, 3, pol)
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()

	readyz := func() (int, map[string]any) {
		resp, err := http.Get(coord.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	if status, out := readyz(); status != http.StatusOK {
		t.Fatalf("fleet up: readyz %d %v", status, out)
	}

	nodes[2].Close()
	status, out := readyz()
	if status != http.StatusServiceUnavailable || out["status"] != "shards-unready" {
		t.Fatalf("one node down under fail policy: readyz %d %v", status, out)
	}
	unready, _ := out["unready_shards"].([]any)
	if len(unready) != 1 || unready[0] != "n2" {
		t.Fatalf("unready_shards = %v, want [n2]", out["unready_shards"])
	}

	// Generate some retries so the counters move.
	_, _ = postShardQuery(t, coord.URL, map[string]any{
		"query":      "SELECT VALUE x.v FROM orders AS x WHERE x.v > 3",
		"on_failure": "partial",
	})
	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sqlpp_queue_depth ",
		"sqlpp_shard_retries_total 1",
		"sqlpp_shard_breaker_open 0",
		"sqlpp_shard_n2_retries_total 1",
		"sqlpp_shard_n0_retries_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q:\n%s", want, text)
		}
	}
}

// TestCoordinatorPartialReadyzPolicy checks that the partial policy
// keeps the coordinator ready while any shard survives.
func TestCoordinatorPartialReadyzPolicy(t *testing.T) {
	pol := shard.Policy{OnFailure: shard.Partial, MaxAttempts: 1, BreakerThreshold: -1}
	co, nodes := newShardFleet(t, 2, pol)
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()
	nodes[0].Close()

	resp, err := http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial policy with one survivor: readyz %d", resp.StatusCode)
	}
}

// missingRows holds a MISSING inside an array, the one value CBOR cannot
// carry.
const missingRows = `{{ {'k': 1, 'a': [1, MISSING]}, {'k': 2, 'a': [2]} }}`

// TestShardedMissingElementsOverHTTP: an HTTP fleet answers what one engine
// answers over rows holding a MISSING. Distribute ships such a part in
// object notation, and a node whose result holds one answers a client
// that only asked for CBOR by its Accept header with the object notation
// in the JSON envelope.
func TestShardedMissingElementsOverHTTP(t *testing.T) {
	execs := make([]shard.Executor, 2)
	for i := range execs {
		ts := httptest.NewServer(server.New(sqlpp.New(nil), server.Config{}))
		t.Cleanup(ts.Close)
		execs[i] = shard.NewHTTP(fmt.Sprintf("n%d", i), ts.URL, nil)
	}
	co := shard.NewCoordinator(sqlpp.New(nil), shard.Policy{}, execs...)
	if err := co.Distribute("t", sqlpp.MustParseValue(missingRows), shard.Spec{Kind: shard.Hash, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	single := sqlpp.New(nil)
	if err := single.Register("t", sqlpp.MustParseValue(missingRows)); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{
		"SELECT VALUE x FROM t AS x ORDER BY x.k",
		"SELECT k AS k, g AS g FROM t AS x GROUP BY x.k AS k GROUP AS g ORDER BY k",
	} {
		want, err := single.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Exec(context.Background(), query)
		if err != nil {
			t.Errorf("%s: %v", query, err)
			continue
		}
		if res.Value.String() != want.String() {
			t.Errorf("%s:\n fleet %s\n one engine %s", query, res.Value, want)
		}
	}

	// On one node: CBOR by Accept alone gives way to the envelope, while
	// an explicit "format":"cbor" keeps its 422.
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "t", "sion", missingRows)
	const query = `{"query": "SELECT VALUE x.a FROM t AS x ORDER BY x.k", "format": "json"}`
	status, hdr, raw := postRaw(t, ts.URL, query, "application/cbor")
	if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("Accept: application/cbor: status %d, %q: %s", status, hdr.Get("Content-Type"), raw)
	}
	var reply queryReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if got := sionResult(t, reply.Result).String(); got != "[[1, MISSING], [2]]" {
		t.Errorf("envelope result %s, want [[1, MISSING], [2]]", got)
	}
	status, _, raw = postRaw(t, ts.URL, strings.Replace(query, `"json"`, `"cbor"`, 1), "application/cbor")
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "MISSING") {
		t.Errorf("format cbor: status %d, want 422 naming MISSING: %s", status, raw)
	}
}
