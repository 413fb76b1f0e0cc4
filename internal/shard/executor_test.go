package shard

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// stubNode serves POST /v1/query with answer and accepts every ingest, so
// a coordinator can Distribute onto it.
func stubNode(t *testing.T, answer http.HandlerFunc) *HTTPExecutor {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", answer)
	mux.HandleFunc("POST /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return NewHTTP("s0", srv.URL, srv.Client())
}

// body answers 200 with the given content type and bytes.
func body(ctype string, b []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ctype)
		w.Write(b)
	}
}

// cutShort announces the whole of b and sends half of it, as a node that
// dies mid-answer does.
func cutShort(ctype string, b []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ctype)
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b[:len(b)/2])
	}
}

// TestLyingDataNode: whatever a data node answers, Exec returns either the
// whole result or an error — never part of a bag — and marks the error
// transient exactly when another attempt could get a different answer.
func TestLyingDataNode(t *testing.T) {
	rows := sqlpp.MustParseValue(`{{ {'id': 1, 'tags': ['a', 'b']}, {'id': 2}, 'three' }}`)
	cbor, err := datafmt.EncodeCBOR(rows)
	if err != nil {
		t.Fatal(err)
	}
	envelope := []byte(`{"result":` + strconv.Quote(rows.String()) + `,"cached":false,"elapsed_us":3}`)
	big := []byte(`{"result":"{{ '` + strings.Repeat("x", 4<<10) + `' }}"}`)
	bigCBOR, err := datafmt.EncodeCBOR(value.Bag{value.String(strings.Repeat("x", 4<<10))})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		answer    http.HandlerFunc
		ok        bool
		transient bool
		mentions  string
	}{
		{name: "cbor", answer: body(datafmt.CBORContentType, cbor), ok: true},
		{name: "sion envelope from a node that predates cbor", answer: body("application/json", envelope), ok: true},
		{name: "cbor body cut short", answer: cutShort(datafmt.CBORContentType, cbor), transient: true},
		{name: "cbor item ends early, framing intact", answer: body(datafmt.CBORContentType, cbor[:len(cbor)-3]), transient: true},
		{name: "envelope cut short", answer: cutShort("application/json", envelope), transient: true},
		{name: "oversized cbor body", answer: body(datafmt.CBORContentType, bigCBOR), mentions: "exceeds"},
		{name: "oversized envelope", answer: body("application/json", big), mentions: "exceeds"},
		{name: "wrong content type", answer: body("text/html", []byte("<html>it works</html>")), mentions: "content type"},
		{name: "no content type", answer: func(w http.ResponseWriter, r *http.Request) {
			w.Header()["Content-Type"] = nil
			w.Write(cbor)
		}, mentions: "content type"},
		{name: "200 with an error field", answer: body("application/json", []byte(`{"error":"boom","result":"{{1}}"}`)), mentions: "boom"},
		{name: "malformed cbor payload", answer: body(datafmt.CBORContentType, []byte{0x82, 0x01, 0x5f}), mentions: "indefinite"},
		{name: "cbor with trailing bytes", answer: body(datafmt.CBORContentType, append(cbor[:len(cbor):len(cbor)], 0xf6)), mentions: "trailing"},
		{name: "envelope with malformed sion", answer: body("application/json", []byte(`{"result":"{{ 1, "}`)), mentions: "parse result"},
		{name: "envelope that is not json", answer: body("application/json", []byte(`{"result":`)), mentions: "decode response"},
		{name: "envelope without a result", answer: body("application/json", []byte(`{"cached":true}`)), mentions: "decode result"},
		{name: "shedding", answer: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"server at capacity"}`))
		}, transient: true, mentions: "at capacity"},
		{name: "semantic error", answer: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write([]byte(`{"error":"execute: type fault"}`))
		}, mentions: "type fault"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := stubNode(t, c.answer)
			x.maxBody = 1 << 10
			resp, err := x.Exec(context.Background(), Request{Query: "data"})
			if c.ok {
				if err != nil {
					t.Fatal(err)
				}
				if resp.Value.String() != rows.String() {
					t.Fatalf("got %s, want %s", resp.Value, rows)
				}
				return
			}
			if err == nil || resp != nil {
				t.Fatalf("got (%v, %v), want an error and no response", resp, err)
			}
			if _, transient := IsTransient(err); transient != c.transient {
				t.Errorf("transient = %v, want %v: %v", transient, c.transient, err)
			}
			if !strings.HasPrefix(err.Error(), "shard s0: ") || !strings.Contains(err.Error(), c.mentions) {
				t.Errorf("error %q should name the shard and mention %q", err, c.mentions)
			}
		})
	}
}

// Through a coordinator a lying node is a typed *ShardError under the fail
// policy, and a body cut short is retried into the complete answer.
func TestLyingDataNodeThroughCoordinator(t *testing.T) {
	data := sqlpp.MustParseValue(`{{ {'v': 1}, {'v': 2}, {'v': 3} }}`)
	partial, err := datafmt.EncodeCBOR(value.Bag{value.Int(1), value.Int(2), value.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	const query = "SELECT VALUE x.v FROM data AS x"
	newCoord := func(answer http.HandlerFunc) *Coordinator {
		co := NewCoordinator(sqlpp.New(nil), Policy{MaxAttempts: 2, BaseBackoff: time.Microsecond}, stubNode(t, answer))
		if err := co.Distribute("data", data, Spec{}); err != nil {
			t.Fatal(err)
		}
		return co
	}

	_, err = newCoord(body(datafmt.CBORContentType, partial[:len(partial)-1])).Exec(context.Background(), query)
	var se *ShardError
	if !errors.As(err, &se) || se.Attempts != 2 {
		t.Fatalf("truncated on every attempt: got %v, want a *ShardError after 2 attempts", err)
	}

	_, err = newCoord(body("text/plain", partial)).Exec(context.Background(), query)
	if !errors.As(err, &se) || se.Attempts != 1 {
		t.Fatalf("wrong content type: got %v, want a *ShardError after 1 attempt", err)
	}

	var calls atomic.Int32
	res, err := newCoord(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			cutShort(datafmt.CBORContentType, partial)(w, r)
			return
		}
		body(datafmt.CBORContentType, partial)(w, r)
	}).Exec(context.Background(), query)
	if err != nil || res.Value.String() != "{{1, 2, 3}}" {
		t.Fatalf("cut short once, then whole: got (%v, %v)", res, err)
	}
}

// TestAnsweredErrorsSpareTheBreaker: a shard that answers a query's
// failure well-formed — a strict-mode type fault on an in-process shard,
// a 422 envelope from a data node — is healthy, so any number of such
// answers in a row leaves its breaker closed and the next good query
// runs. A node that answers malformed still trips it.
func TestAnsweredErrorsSpareTheBreaker(t *testing.T) {
	const bad, good = "SELECT VALUE x.v + 'oops' FROM data AS x", "SELECT VALUE x.v FROM data AS x"
	data := sqlpp.MustParseValue(`{{ {'v': 1}, {'v': 2}, {'v': 3} }}`)
	try := func(t *testing.T, co *Coordinator, query string, n int) error {
		t.Helper()
		var err error
		for i := 0; i < n; i++ {
			_, err = co.Exec(context.Background(), query)
		}
		return err
	}

	t.Run("local strict type faults", func(t *testing.T) {
		co := NewLocalCluster(2, &sqlpp.Options{StopOnError: true}, Policy{})
		if err := co.Distribute("data", data, Spec{Kind: Hash, Key: "v"}); err != nil {
			t.Fatal(err)
		}
		if err := try(t, co, bad, 8); err == nil || !IsAnswered(err) || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("type fault: got %v, want an answered error", err)
		}
		if res, err := co.Exec(context.Background(), good); err != nil || res.Value.String() == "" {
			t.Fatalf("good query after type faults: %v", err)
		}
	})

	var malformed atomic.Bool
	co := NewCoordinator(sqlpp.New(nil), Policy{MaxAttempts: 1}, stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case malformed.Load():
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write([]byte(`<html>`))
		case strings.Contains(readAll(r), "oops"):
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write([]byte(`{"error":"execute: type fault"}`))
		default:
			body(datafmt.CBORContentType, mustCBOR(t, value.Bag{value.Int(1)}))(w, r)
		}
	}))
	if err := co.Distribute("data", data, Spec{}); err != nil {
		t.Fatal(err)
	}
	t.Run("data node 422 envelopes", func(t *testing.T) {
		if err := try(t, co, bad, 8); err == nil || !IsAnswered(err) {
			t.Fatalf("422 envelope: got %v, want an answered error", err)
		}
		if _, err := co.Exec(context.Background(), good); err != nil {
			t.Fatalf("good query after 422 envelopes: %v", err)
		}
	})
	t.Run("malformed answers still trip it", func(t *testing.T) {
		malformed.Store(true)
		if err := try(t, co, good, 6); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("after malformed answers: got %v, want the breaker open", err)
		}
	})
}

// TestWireOptionsBytes pins the options object a shard request carries:
// every key present, in this order, even when zero, so a data node reads
// each as an explicit override of its own default.
func TestWireOptionsBytes(t *testing.T) {
	for _, c := range []struct {
		opts ExecOptions
		want string
	}{
		{ExecOptions{Compat: true, Strict: true, DisableOptimizer: true, Parallelism: 3, MaxRows: 7, MaxBytes: 11},
			`{"compat":true,"strict":true,"disable_optimizer":true,"parallelism":3,"max_rows":7,"max_bytes":11}`},
		{ExecOptions{},
			`{"compat":false,"strict":false,"disable_optimizer":false,"parallelism":0,"max_rows":0,"max_bytes":0}`},
	} {
		var got json.RawMessage
		x := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Options json.RawMessage `json:"options"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
			}
			got = req.Options
			body(datafmt.CBORContentType, mustCBOR(t, value.Bag{}))(w, r)
		})
		if _, err := x.Exec(context.Background(), Request{Query: "t", Options: c.opts}); err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("options on the wire\n got  %s\n want %s", got, c.want)
		}
	}
}

// readAll reads a request body to a string.
func readAll(r *http.Request) string {
	b, _ := io.ReadAll(r.Body)
	return string(b)
}

// mustCBOR encodes v.
func mustCBOR(t *testing.T, v value.Value) []byte {
	t.Helper()
	b, err := datafmt.EncodeCBOR(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegisterWire: Register ships a collection as CBOR, and a value
// holding a MISSING, which CBOR cannot carry, in object notation; the
// node reads back the value sent either way.
func TestRegisterWire(t *testing.T) {
	for _, c := range []struct {
		src, format, ctype string
	}{
		{`{{ {'id': 1, 'tags': ['a', 'b']}, {'id': 2, 'at': x'00ff'}, 'three', null }}`, "cbor", datafmt.CBORContentType},
		{`{{ {'id': 1, 'a': [1, MISSING]} }}`, "sion", "text/plain"},
	} {
		want := sqlpp.MustParseValue(c.src)
		var got value.Value
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
			if f := r.URL.Query().Get("format"); f != c.format {
				t.Errorf("%s: format=%q, want %q", c.src, f, c.format)
			}
			if ct := r.Header.Get("Content-Type"); ct != c.ctype {
				t.Errorf("%s: Content-Type %q, want %q", c.src, ct, c.ctype)
			}
			v, err := datafmt.Decode(c.format, r.Body)
			if err != nil {
				t.Errorf("%s: decode: %v", c.src, err)
			}
			got = v
			w.WriteHeader(http.StatusCreated)
		})
		srv := httptest.NewServer(mux)
		err := NewHTTP("s0", srv.URL, srv.Client()).Register("rows", want)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.String() != want.String() {
			t.Errorf("node read %v, want %s", got, want)
		}
	}
}

// TestInstallReportsFailingShard: Distribute and Broadcast send every
// shard its part, even past a shard that fails, and report that shard.
func TestInstallReportsFailingShard(t *testing.T) {
	var hits [3]atomic.Int32
	execs := make([]Executor, len(hits))
	for i := range execs {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/collections/{name}", func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			io.Copy(io.Discard, r.Body)
			if i == 1 {
				http.Error(w, "disk full", http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusCreated)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		execs[i] = NewHTTP("n"+strconv.Itoa(i), srv.URL, srv.Client())
	}
	co := NewCoordinator(sqlpp.New(nil), Policy{}, execs...)
	data := sqlpp.MustParseValue(`{{ {'k': 1}, {'k': 2}, {'k': 3}, {'k': 4} }}`)
	for _, c := range []struct {
		name    string
		install func() error
	}{
		{"Distribute", func() error { return co.Distribute("rows", data, Spec{Kind: Hash, Key: "k"}) }},
		{"Broadcast", func() error { return co.Broadcast("dims", data) }},
	} {
		for i := range hits {
			hits[i].Store(0)
		}
		err := c.install()
		if err == nil || !strings.Contains(err.Error(), "shard n1") || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("%s: got %v, want an error naming shard n1", c.name, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Errorf("%s: shard n%d received %d registrations, want 1", c.name, i, n)
			}
		}
	}
}
