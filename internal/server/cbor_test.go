package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/server"
	"sqlpp/internal/shard"
)

// postRaw posts a /v1/query body with an optional Accept header and
// returns the status, content type and raw body.
func postRaw(t *testing.T, base, body, accept string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestCBORResult: format "cbor" and Accept: application/cbor both answer
// with the result as one bare CBOR item, the same bytes, which decode to
// the value format "sion" renders — heterogeneous rows, nesting, bag and
// array kinds included.
func TestCBORResult(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "rows", "sion", `{{
		{'id': 1, 'tags': ['a', 'it''s'], 'score': 1.5, 'nested': {{ {'k': null}, 2 }}},
		{'id': 2, 'blob': x'00ff', 'ok': true},
		'a bare string', -7
	}}`)
	for _, query := range []string{
		`SELECT VALUE r FROM rows AS r`,
		`SELECT VALUE r.id FROM rows AS r ORDER BY r.id`,
		`SELECT r.id AS id, (SELECT VALUE t FROM r.tags AS t) AS tags FROM rows AS r`,
	} {
		status, reply := postQuery(t, ts.URL, fmt.Sprintf(`{"query": %q, "format": "sion"}`, query))
		if status != http.StatusOK {
			t.Fatalf("%s: sion status %d: %s", query, status, reply.Error)
		}
		want := sionResult(t, reply.Result)

		status, hdr, byFormat := postRaw(t, ts.URL, fmt.Sprintf(`{"query": %q, "format": "cbor"}`, query), "")
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/cbor" {
			t.Fatalf("%s: format cbor: status %d, content type %q: %s", query, status, hdr.Get("Content-Type"), byFormat)
		}
		got, err := datafmt.DecodeCBOR(byFormat)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\n  cbor %s\n  sion %s", query, got, want)
		}

		status, hdr, byAccept := postRaw(t, ts.URL, fmt.Sprintf(`{"query": %q, "format": "sion"}`, query), "application/cbor")
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/cbor" || string(byAccept) != string(byFormat) {
			t.Errorf("%s: Accept: application/cbor answered status %d, %q, %d bytes; want the format cbor answer", query, status, hdr.Get("Content-Type"), len(byAccept))
		}
	}

	// EXPLAIN keeps the envelope: the stats tree is JSON.
	status, hdr, raw := postRaw(t, ts.URL, `{"query": "SELECT VALUE r FROM rows AS r", "format": "sion", "explain": "analyze"}`, "application/cbor")
	if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" || !strings.Contains(string(raw), `"stats"`) {
		t.Errorf("explain with Accept: status %d, %q: %s", status, hdr.Get("Content-Type"), raw)
	}
	if status, _, raw := postRaw(t, ts.URL, `{"query": "SELECT VALUE 1", "format": "cbor", "explain": "analyze"}`, ""); status != http.StatusBadRequest {
		t.Errorf("explain with format cbor: status %d, want 400: %s", status, raw)
	}
	// MISSING has no CBOR encoding; the error still arrives as a status.
	status, hdr, raw = postRaw(t, ts.URL, `{"query": "{'a': 1}.b", "format": "cbor"}`, "")
	if status != http.StatusUnprocessableEntity || hdr.Get("Content-Type") != "application/json" || !strings.Contains(string(raw), "MISSING") {
		t.Errorf("MISSING result: status %d, %q: %s", status, hdr.Get("Content-Type"), raw)
	}
}

// TestCoordinatorCBORAndOldNodes: a coordinator answers format "cbor" too
// (the missing-shards annotation moves to a header), and merges the same
// result from nodes that honour its Accept: application/cbor as from
// nodes that predate it and answer with the object notation in a JSON
// envelope.
func TestCoordinatorCBORAndOldNodes(t *testing.T) {
	const query = "SELECT x.g AS g, SUM(x.v) AS s, COUNT(*) AS c FROM orders AS x GROUP BY x.g AS g ORDER BY g"
	const want = `[{'g': 'a', 's': 19, 'c': 4}, {'g': 'b', 's': 15, 'c': 3}, {'g': 'c', 's': 11, 'c': 2}]`

	for _, old := range []bool{false, true} {
		var cborAnswers atomic.Int32
		execs := make([]shard.Executor, 3)
		for i := range execs {
			node := server.New(sqlpp.New(nil), server.Config{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if old {
					r.Header.Del("Accept") // a node that never heard of the negotiation
				}
				node.ServeHTTP(w, r)
				if w.Header().Get("Content-Type") == "application/cbor" {
					cborAnswers.Add(1)
				}
			}))
			t.Cleanup(ts.Close)
			execs[i] = shard.NewHTTP(fmt.Sprintf("n%d", i), ts.URL, nil)
		}
		co := shard.NewCoordinator(sqlpp.New(nil), shard.Policy{}, execs...)
		if err := co.Distribute("orders", sqlpp.MustParseValue(`[
			{'g': 'a', 'v': 1}, {'g': 'b', 'v': 2}, {'g': 'a', 'v': 3},
			{'g': 'c', 'v': 4}, {'g': 'b', 'v': 5}, {'g': 'a', 'v': 6},
			{'g': 'c', 'v': 7}, {'g': 'b', 'v': 8}, {'g': 'a', 'v': 9}
		]`), shard.Spec{}); err != nil {
			t.Fatal(err)
		}
		coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
		t.Cleanup(coord.Close)

		status, hdr, raw := postRaw(t, coord.URL, fmt.Sprintf(`{"query": %q, "format": "cbor"}`, query), "")
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/cbor" {
			t.Fatalf("old=%v: status %d, %q: %s", old, status, hdr.Get("Content-Type"), raw)
		}
		got, err := datafmt.DecodeCBOR(raw)
		if err != nil || got.String() != want {
			t.Errorf("old=%v: got (%v, %v), want %s", old, got, err, want)
		}
		if n := cborAnswers.Load(); old != (n == 0) {
			t.Errorf("old=%v: %d node answers were CBOR", old, n)
		}
	}
}

// A partial answer in CBOR has no envelope for missing_shards; the
// annotation travels as a header instead of being dropped.
func TestCoordinatorPartialCBORNamesMissingShards(t *testing.T) {
	pol := shard.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, BreakerThreshold: -1}
	co, nodes := newShardFleet(t, 3, pol)
	coord := httptest.NewServer(server.New(co.Engine(), server.Config{Coordinator: co}))
	defer coord.Close()
	nodes[1].Close()

	status, hdr, raw := postRaw(t, coord.URL,
		`{"query": "SELECT VALUE x.v FROM orders AS x", "format": "cbor", "on_failure": "partial"}`, "")
	if status != http.StatusOK || hdr.Get("Sqlpp-Missing-Shards") != "n1" {
		t.Fatalf("status %d, Sqlpp-Missing-Shards %q: %s", status, hdr.Get("Sqlpp-Missing-Shards"), raw)
	}
	if got, err := datafmt.DecodeCBOR(raw); err != nil || got.String() != "{{1, 2, 3, 7, 8, 9}}" {
		t.Errorf("got (%v, %v), want the surviving shards' rows", got, err)
	}
}
