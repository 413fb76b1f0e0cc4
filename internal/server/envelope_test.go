package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// legacyEnvelope is the body encoding/json wrote for a query answer
// before the envelope was written by hand: the result rendered on its
// own, then the whole response through json.Encoder.
func legacyEnvelope(t *testing.T, v value.Value, format string, resp *queryResponse) string {
	t.Helper()
	var raw json.RawMessage
	var err error
	switch format {
	case "sion":
		raw, err = json.Marshal(v.String())
	case "pretty":
		raw, err = json.Marshal(value.Pretty(v))
	default:
		var s string
		s, err = datafmt.JSONString(v)
		raw = json.RawMessage(s)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	body := struct {
		Result json.RawMessage `json:"result"`
		queryResponse
	}{raw, *resp}
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The hand-written envelope is byte for byte what encoding/json wrote
// for every field, present or omitted, and every format.
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	db := sqlpp.New(&sqlpp.Options{Vet: true})
	if err := db.Register("emp", sion.MustParse(`{{ {'id': 1, 'name': 'Ada <&>', 'salary': 120}, {'id': 2, 'name': 'Bo', 'salary': 95} }}`)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`FROM emp AS e, emp AS d WHERE e.salary > 100 SELECT VALUE e.name`)
	if err != nil {
		t.Fatal(err)
	}
	result, stats, err := prep.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Diagnostics()) == 0 {
		t.Fatal("the vetted query has no diagnostics to encode")
	}
	odd := []string{"hash-join(1) at 1:1", "<script>&amp;", "line\u2028sep", "bad \xff utf-8", `q"uote\`}
	responses := []*queryResponse{
		{},
		{Cached: true, ElapsedUS: 1234567, Plan: odd},
		{ElapsedUS: 5, Plan: []string{}, Stats: stats, Diagnostics: prep.Diagnostics()},
		{Plan: odd[:1], Class: "group", Sharded: "emp <x>", MissingShards: []string{"http://n1", "n\u2029"}},
	}
	results := []value.Value{result, value.Bag{}, value.Null, sion.MustParse(`[{'a"': {{3, 1.5, 'x'}}}, x'00ff', -0.0, 1e21]`)}
	for _, format := range []string{"json", "", "sion", "pretty"} {
		for _, v := range results {
			for _, resp := range responses {
				rec := httptest.NewRecorder()
				New(db, Config{}).writeResult(rec, v, format, resp)
				want := legacyEnvelope(t, v, format, resp)
				if rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Fatalf("format %q, result %v: status %d\n got %s\nwant %s", format, v, rec.Code, rec.Body, want)
				}
				if rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("Content-Type %q", rec.Header().Get("Content-Type"))
				}
			}
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// A served answer costs what the request does, not a price per row: the
// result goes from the engine to the socket through one pooled writer.
func TestServedResultAllocatesNothingPerRow(t *testing.T) {
	allocs := func(rows int) float64 {
		db := sqlpp.New(nil)
		bag := make(value.Bag, rows)
		shape := value.ShapeOf("id", "name", "score")
		for i := range bag {
			bag[i] = shape.New([]value.Value{value.Int(int64(rows - i)), value.String("name " + strconv.Itoa(i)), value.Float(float64(i) / 4)})
		}
		if err := db.Register("rows", bag); err != nil {
			t.Fatal(err)
		}
		s := New(db, Config{})
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query": "rows"}`))
			w := &discardResponse{h: http.Header{}}
			s.ServeHTTP(w, req)
		}
		serve()
		return testing.AllocsPerRun(20, serve)
	}
	small, large := allocs(100), allocs(5000)
	if perRow := (large - small) / 4900; perRow > 0.01 {
		t.Errorf("serving 100 rows: %.0f allocations, 5000 rows: %.0f (%.2f a row), want none per row", small, large, perRow)
	}
}

// A result that cannot be encoded is a 422 while nothing has gone out; a
// longer one that fails past its first chunk ends short, and is counted.
func TestResultEncodeFailure(t *testing.T) {
	s := New(sqlpp.New(nil), Config{})
	rec := httptest.NewRecorder()
	s.writeResult(rec, value.Array{value.Int(1), value.Missing}, "json", &queryResponse{})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "encode result: datafmt: MISSING") {
		t.Errorf("small unencodable result: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	s.writeResult(rec, value.Int(1), "yaml", &queryResponse{})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), `unknown result format \"yaml\"`) {
		t.Errorf("unknown format: %d %s", rec.Code, rec.Body)
	}

	long := value.Array{value.String(strings.Repeat("x", 40<<10)), value.Missing}
	before := s.metrics.Errors.Load()
	rec = httptest.NewRecorder()
	s.writeResult(rec, long, "json", &queryResponse{})
	if body := rec.Body.String(); rec.Code != http.StatusOK || !strings.HasPrefix(body, `{"result":["xxx`) || json.Valid([]byte(body)) {
		t.Errorf("a result failing past its first chunk: %d, %d bytes, valid JSON %v", rec.Code, len(body), json.Valid([]byte(body)))
	}
	if s.metrics.Errors.Load() != before+1 {
		t.Error("the cut-short answer was not counted as an error")
	}
}

// An answer longer than a chunk streams without a Content-Length and
// reads back as the same JSON the one-write path produces.
func TestLongAnswerStreams(t *testing.T) {
	db := sqlpp.New(nil)
	rows := make(value.Bag, 4000)
	for i := range rows {
		rows[i] = value.ShapeOf("i", "s").New([]value.Value{value.Int(int64(i)), value.String(strings.Repeat("y", i%40))})
	}
	if err := db.Register("rows", rows); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, Config{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query": "rows"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != -1 {
		t.Fatalf("status %d, Content-Length %d, %v", resp.StatusCode, resp.ContentLength, err)
	}
	want, _ := datafmt.JSONString(rows)
	if !bytes.HasPrefix(body, []byte(`{"result":`+want+`,"cached":false,"elapsed_us":`)) || !bytes.HasSuffix(body, []byte("}\n")) {
		t.Errorf("streamed answer of %d bytes is not the envelope around the %d-byte result", len(body), len(want))
	}
}
