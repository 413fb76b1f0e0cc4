package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/parser"
	"sqlpp/internal/server"
	"sqlpp/internal/value"
)

// post sends body to path and returns the status and the response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestHostileNestingIsRefused: a body nested one level past the decoders'
// bound, in any nesting format and as a replace or an append, and a query
// nested one level past the parser's, are each a 400 naming the typed
// error, and the server goes on answering.
func TestHostileNestingIsRefused(t *testing.T) {
	_, ts := newTestServer(t, nil, server.Config{})
	ingest(t, ts.URL, "x", "sion", `{{ 1 }}`)
	n := datafmt.MaxDepth + 1
	bodies := map[string]string{
		"sion": strings.Repeat("[", n) + strings.Repeat("]", n),
		"json": strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n),
		"cbor": strings.Repeat("\x81", n) + "\x00",
	}
	for format, body := range bodies {
		for _, mode := range []string{"", "&mode=append"} {
			status, reply := post(t, ts.URL+"/v1/collections/x?format="+format+mode, body)
			want := fmt.Sprintf("datafmt: %s offset", format)
			if status != http.StatusBadRequest || !strings.Contains(reply, want) || !strings.Contains(reply, "nesting deeper than") {
				t.Errorf("%s%s nested %d deep: %d %s, want 400 with %q", format, mode, n, status, reply, want)
			}
		}
	}

	deep := strings.Repeat("(", parser.MaxDepth+1) + "1" + strings.Repeat(")", parser.MaxDepth+1)
	status, reply := postQuery(t, ts.URL, fmt.Sprintf(`{"query": %q}`, deep))
	if status != http.StatusBadRequest || !strings.Contains(reply.Error, "parse error") || !strings.Contains(reply.Error, "nesting deeper than") {
		t.Errorf("query nested %d deep: %d %s, want 400 with a parse error", parser.MaxDepth+1, status, reply.Error)
	}

	status, reply = postQuery(t, ts.URL, `{"query": "SELECT VALUE v FROM x AS v", "format": "sion"}`)
	if status != http.StatusOK || sionResult(t, reply.Result).String() != "{{1}}" {
		t.Errorf("after the refusals: %d %s %s", status, reply.Result, reply.Error)
	}
}

// TestEveryFormatAppendsTheSameRows is format independence (C5) at the
// service boundary: a collection registered whole and the same rows
// appended in turn as JSON, JSON lines, CSV, CBOR and the object notation
// answer every query byte for byte alike, through the same plan.
func TestEveryFormatAppendsTheSameRows(t *testing.T) {
	shape := value.ShapeOf("id", "name", "score", "ok", "note")
	var rows value.Bag
	for i := 0; i < 40; i++ {
		note := value.Value(value.Null)
		if i%4 != 0 {
			note = value.String(fmt.Sprintf("note %d", i))
		}
		rows = append(rows, shape.New([]value.Value{
			value.Int(i), value.String(fmt.Sprintf("n%d", i%7)), value.Float(float64(i) + 0.5), value.Bool(i%3 == 0), note,
		}))
	}
	encode := map[string]func(value.Bag) string{
		"json": func(b value.Bag) string {
			s, err := datafmt.JSONString(b)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"jsonl": func(b value.Bag) string {
			var sb strings.Builder
			for _, row := range b {
				s, err := datafmt.JSONString(row)
				if err != nil {
					t.Fatal(err)
				}
				sb.WriteString(s + "\n")
			}
			return sb.String()
		},
		"csv": func(b value.Bag) string {
			var buf bytes.Buffer
			if err := datafmt.EncodeCSV(&buf, b); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		},
		"cbor": func(b value.Bag) string {
			enc, err := datafmt.EncodeCBOR(b)
			if err != nil {
				t.Fatal(err)
			}
			return string(enc)
		},
		"sion": func(b value.Bag) string { return b.String() },
	}
	indexes := []string{
		`{"name":"by_id","collection":"t","path":"id","kind":"hash"}`,
		`{"name":"by_score","collection":"t","path":"score","kind":"ordered"}`,
	}

	_, whole := newTestServer(t, nil, server.Config{})
	ingest(t, whole.URL, "t", "sion", rows.String())
	_, parts := newTestServer(t, nil, server.Config{})
	ingest(t, parts.URL, "t", "sion", "{{ }}")
	for _, srv := range []string{whole.URL, parts.URL} {
		for _, ix := range indexes {
			if status, reply := createIndex(t, srv, ix); status != http.StatusCreated {
				t.Fatalf("create index %s: %d %v", ix, status, reply)
			}
		}
	}
	formats := []string{"json", "jsonl", "csv", "cbor", "sion"}
	for i := 0; i*4 < len(rows); i++ {
		format := formats[i%len(formats)]
		status, reply := post(t, parts.URL+"/v1/collections/t?mode=append&format="+format, encode[format](rows[i*4:i*4+4]))
		if status != http.StatusOK {
			t.Fatalf("append %d as %s: %d %s", i, format, status, reply)
		}
	}

	for _, q := range []string{
		`SELECT VALUE t FROM t AS t WHERE t.id = 7`,
		`SELECT VALUE t.id FROM t AS t WHERE t.score >= 3.5 AND t.score < 20 ORDER BY t.id`,
		`SELECT t.name AS name, COUNT(*) AS c, SUM(t.score) AS s FROM t AS t WHERE t.ok GROUP BY t.name ORDER BY name`,
		`SELECT VALUE t FROM t AS t WHERE t.note IS NULL`,
		`SELECT VALUE t FROM t AS t`,
	} {
		var replies [2]queryReply
		for i, srv := range []string{whole.URL, parts.URL} {
			body, _ := json.Marshal(map[string]string{"query": q, "format": "sion"})
			status, reply := postQuery(t, srv, string(body))
			if status != http.StatusOK {
				t.Fatalf("%s: %d %s", q, status, reply.Error)
			}
			replies[i] = reply
		}
		if !bytes.Equal(replies[0].Result, replies[1].Result) {
			t.Errorf("%s:\nregistered whole: %s\nappended in turn: %s", q, replies[0].Result, replies[1].Result)
		}
		// The notes name the access paths (index-eq, index-range, scans)
		// and the estimates they were chosen by.
		if !slices.Equal(replies[0].Plan, replies[1].Plan) {
			t.Errorf("%s: plan %v registered whole, %v appended in turn", q, replies[0].Plan, replies[1].Plan)
		}
	}
}
