package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/shard"
	"sqlpp/internal/value"
)

// queryRequest is the body of POST /v1/query.
type queryRequest struct {
	// Query is the SQL++ text.
	Query string `json:"query"`
	// Params supplies parameterized-query bindings by name; JSON values
	// convert to SQL++ values (objects to tuples, arrays to arrays).
	Params map[string]any `json:"params,omitempty"`
	// Options overrides the engine's per-session toggles for this
	// request only. Absent fields keep the server's defaults.
	Options *queryOptions `json:"options,omitempty"`
	// TimeoutMS bounds execution; 0 means the server default, and the
	// server's MaxTimeout caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Format selects the result encoding: "json" (default), "sion"
	// (the paper's object notation, lossless for MISSING), "pretty", or
	// "cbor". CBOR replaces the JSON envelope: the response body is the
	// result as one CBOR item, Content-Type application/cbor. A request
	// that sends Accept: application/cbor gets the same whatever Format
	// says, unless it asks for "explain" (the stats tree needs the
	// envelope) or the result holds a MISSING (see resultFormat) — so a
	// client can prefer CBOR and still talk to a server that predates it.
	Format string `json:"format,omitempty"`
	// Explain set to "analyze" executes the query with per-operator
	// instrumentation and returns the stats tree in the response's
	// "stats" field. The result is identical to an uninstrumented run.
	Explain string `json:"explain,omitempty"`
	// Vet runs the static semantic analyzer over the compiled query and
	// returns its findings in the response's "diagnostics" field.
	// Error-severity findings (provable type faults under strict mode)
	// reject the query at compile time; the rejection carries the
	// diagnostics. Warnings never block execution.
	Vet bool `json:"vet,omitempty"`
	// OnFailure selects the coordinator's partial-failure policy for
	// this request: "fail" (default) surfaces a shard failure as an
	// error, "partial" answers from the surviving shards and annotates
	// the response with "missing_shards". Ignored outside coordinator
	// mode.
	OnFailure string `json:"on_failure,omitempty"`

	// acceptCBOR is set when only the Accept header asked for CBOR.
	acceptCBOR bool
}

// resultFormat is the format result is answered in. CBOR that only the
// Accept header asked for gives way to the object notation, in the JSON
// envelope, when the result holds a MISSING: CBOR cannot carry it, and a
// client that negotiates reads either answer. An explicit "cbor" keeps
// its 422.
func (req *queryRequest) resultFormat(result value.Value) string {
	if req.acceptCBOR && value.HasMissing(result) {
		return "sion"
	}
	return req.Format
}

type queryOptions struct {
	Compat *bool `json:"compat,omitempty"`
	Strict *bool `json:"strict,omitempty"`
	// DisableOptimizer runs this request on the reference implementation
	// (no physical plan, tree-walking interpreter); Parallelism bounds the
	// parallel-scan worker pool (0 = GOMAXPROCS, 1 = sequential).
	DisableOptimizer *bool `json:"disable_optimizer,omitempty"`
	Parallelism      *int  `json:"parallelism,omitempty"`
	// MaxRows / MaxBytes set this request's governor budgets for output
	// rows and materialized bytes. The server's own caps clamp both: a
	// request may tighten the budget below the cap but never exceed it.
	MaxRows  *int64 `json:"max_rows,omitempty"`
	MaxBytes *int64 `json:"max_bytes,omitempty"`
}

// queryResponse is the body of a successful POST /v1/query after its
// "result", which writeResult encodes into the response ahead of these
// fields. writeFields writes them by hand, in this order and under these
// names, as encoding/json would (TestEnvelopeMatchesEncodingJSON).
type queryResponse struct {
	// Cached reports whether the plan came from the cache.
	Cached bool `json:"cached"`
	// ElapsedUS is the server-side latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Plan notes the physical optimizations applied to the query, one
	// entry per rewrite that fired; absent when none did.
	Plan []string `json:"plan,omitempty"`
	// Stats is the EXPLAIN ANALYZE operator tree, present only when the
	// request set "explain": "analyze".
	Stats *sqlpp.OpStats `json:"stats,omitempty"`
	// Diagnostics are the static analyzer's findings, present only when
	// the request set "vet": true.
	Diagnostics []sqlpp.Diagnostic `json:"diagnostics,omitempty"`
	// Class is the scatter class that ran in coordinator mode: local,
	// group, topk, concat, or gather.
	Class string `json:"class,omitempty"`
	// Sharded names the sharded collection that drove a coordinator-mode
	// scatter.
	Sharded string `json:"sharded,omitempty"`
	// MissingShards lists the shards absent from a partial-policy
	// result, in shard order.
	MissingShards []string `json:"missing_shards,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Resource is present when the error is a governor budget violation,
	// so clients can distinguish "query too expensive" from "query
	// wrong" and react programmatically (page, tighten, or give up).
	Resource *resourceDetail `json:"resource,omitempty"`
	// Diagnostics are the analyzer findings behind a vet rejection.
	Diagnostics []sqlpp.Diagnostic `json:"diagnostics,omitempty"`
}

// resourceDetail is the machine-readable body of a ResourceError.
type resourceDetail struct {
	Kind     string `json:"kind"`
	Site     string `json:"site"`
	Limit    int64  `json:"limit"`
	Observed int64  `json:"observed"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.Errors.Add(1)
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// execError maps an execution failure, on one node or through the
// coordinator, to a status: deadline → 504, governor budget → 422 with
// the resource detail, contained panic → 500 (the engine's bug, not the
// client's: counted, and the server keeps serving), shard failure
// (retries exhausted, breaker open, or fail-fast policy) → 502 Bad
// Gateway — the coordinator is fine, a data node is not — and any other
// failure → 422.
func (s *Server) execError(w http.ResponseWriter, err error, elapsed time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.metrics.Timeouts.Add(1)
		s.fail(w, http.StatusGatewayTimeout, "query exceeded its deadline after %s: %v", elapsed.Round(time.Millisecond), err)
		return
	}
	var re *sqlpp.ResourceError
	if errors.As(err, &re) {
		s.metrics.Governed.Add(1)
		s.metrics.Errors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error: re.Error(),
			Resource: &resourceDetail{
				Kind:     string(re.Kind),
				Site:     re.Site,
				Limit:    re.Limit,
				Observed: re.Observed,
			},
		})
		return
	}
	var pe *sqlpp.PanicError
	if errors.As(err, &pe) {
		s.metrics.Panics.Add(1)
		s.fail(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	var se *shard.ShardError
	if errors.As(err, &se) {
		s.fail(w, http.StatusBadGateway, "execute: %v", err)
		return
	}
	s.fail(w, http.StatusUnprocessableEntity, "execute: %v", err)
}

// handleQuery runs one query: decode → admission gate → plan cache →
// execute under deadline → encode.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)

	// A draining server refuses new queries outright; in-flight ones
	// finish inside the shutdown drain window.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Query == "" {
		s.fail(w, http.StatusBadRequest, "missing \"query\"")
		return
	}
	explain := false
	switch req.Explain {
	case "":
	case "analyze":
		explain = true
	default:
		s.fail(w, http.StatusBadRequest, "unknown explain mode %q (want \"analyze\")", req.Explain)
		return
	}
	if explain && req.Format == "cbor" {
		s.fail(w, http.StatusBadRequest, "format \"cbor\" has no envelope to carry the explain stats; use json or sion")
		return
	}
	if !explain && req.Format != "cbor" && strings.Contains(r.Header.Get("Accept"), datafmt.CBORContentType) {
		req.Format, req.acceptCBOR = "cbor", true
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The gate bounds executing queries. Waiting is bounded twice over:
	// by the request's own deadline and by MaxQueueWait, so a saturated
	// server sheds load with an explicit backpressure signal instead of
	// queueing without bound.
	ok, shed := s.acquire(ctx)
	if !ok {
		if shed {
			// The hint scales with the queue depth, so clients (and the
			// shard coordinator's backoff) wait longer the deeper the
			// backlog.
			w.Header().Set("Retry-After", retryAfter(s.retryAfterHint()))
			s.fail(w, http.StatusTooManyRequests, "server at capacity: gave up after queueing %s", s.cfg.MaxQueueWait)
			return
		}
		s.fail(w, http.StatusServiceUnavailable, "server at capacity: %v", ctx.Err())
		return
	}
	defer s.release()

	params, paramNames, err := convertParams(req.Params)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	engine := s.engine
	opts := engine.Options()
	if req.Options != nil {
		if req.Options.Compat != nil {
			opts.Compat = *req.Options.Compat
		}
		if req.Options.Strict != nil {
			opts.StopOnError = *req.Options.Strict
		}
		if req.Options.DisableOptimizer != nil {
			opts.DisableOptimizer = *req.Options.DisableOptimizer
		}
		if req.Options.Parallelism != nil {
			opts.Parallelism = *req.Options.Parallelism
		}
		if req.Options.MaxRows != nil {
			opts.Limits.MaxOutputRows = *req.Options.MaxRows
		}
		if req.Options.MaxBytes != nil {
			opts.Limits.MaxMaterializedBytes = *req.Options.MaxBytes
		}
	}
	// Server-wide caps clamp the request's budgets: a request may
	// tighten a budget below the cap but never widen past it, and the
	// caps apply even to requests that named no budget at all.
	opts.Limits.MaxOutputRows = clampLimit(opts.Limits.MaxOutputRows, s.cfg.MaxOutputRows)
	opts.Limits.MaxMaterializedBytes = clampLimit(opts.Limits.MaxMaterializedBytes, s.cfg.MaxMaterializedBytes)
	if opts != s.engine.Options() {
		engine = s.engine.WithOptions(opts)
	}

	// Coordinator mode routes through the scatter-gather layer; its
	// scatter-plan cache replaces the server's prepared-plan cache.
	if s.coord != nil {
		s.handleShardedQuery(ctx, w, req, opts, params, explain)
		return
	}

	// Vetting changes Prepare's behavior (error-severity findings reject
	// the query), so it is part of the engine options and thereby of the
	// plan-cache key fingerprint.
	if req.Vet && !opts.Vet {
		opts.Vet = true
		engine = s.engine.WithOptions(opts)
	}

	start := time.Now()
	plan, cached, err := s.plan(engine, opts, req.Query, paramNames, explain)
	if err != nil {
		var ve *sqlpp.VetError
		if errors.As(err, &ve) {
			s.metrics.Errors.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error:       err.Error(),
				Diagnostics: ve.Diagnostics,
			})
			return
		}
		s.fail(w, http.StatusBadRequest, "compile: %v", err)
		return
	}

	var diags []sqlpp.Diagnostic
	if req.Vet {
		if plan.Params != nil {
			diags = plan.Params.Diagnostics()
		} else {
			diags = plan.Prepared.Diagnostics()
		}
		for _, d := range diags {
			if d.Severity == sqlpp.SevWarning {
				s.metrics.VetWarnings.Add(1)
			}
		}
	}

	var result value.Value
	var stats *sqlpp.OpStats
	switch {
	case plan.Params != nil && explain:
		result, stats, err = plan.Params.ExplainAnalyze(ctx, params)
	case plan.Params != nil:
		result, err = plan.Params.ExecContext(ctx, params)
	case explain:
		result, stats, err = plan.Prepared.ExplainAnalyze(ctx)
	default:
		result, err = plan.Prepared.ExecContext(ctx)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.execError(w, err, elapsed)
		return
	}
	s.metrics.Observe(elapsed)
	if stats != nil {
		s.metrics.ObserveOps(stats)
	}

	format := req.resultFormat(result)
	if format == "cbor" {
		s.writeCBOR(w, result)
		return
	}
	var notes []string
	if plan.Params != nil {
		notes = plan.Params.PlanNotes()
	} else {
		notes = plan.Prepared.PlanNotes()
	}
	s.writeResult(w, result, format, &queryResponse{
		Cached:      cached,
		ElapsedUS:   elapsed.Microseconds(),
		Plan:        notes,
		Stats:       stats,
		Diagnostics: diags,
	})
}

// clampLimit applies a server-wide cap to a request-supplied budget:
// with no cap the request's value stands (negatives normalize to
// unlimited); with a cap, "unlimited" and anything above the cap clamp
// down to it.
func clampLimit(req, cap int64) int64 {
	if req < 0 {
		req = 0
	}
	if cap > 0 && (req == 0 || req > cap) {
		return cap
	}
	return req
}

// retryAfter renders a duration as a whole-seconds Retry-After value,
// rounding up so clients never retry early.
func retryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// plan fetches a compiled plan from the cache or compiles and caches
// one. Concurrent misses on the same key may compile twice; the loser's
// Put simply refreshes the entry, which is sound because plans are
// immutable and interchangeable.
//
// The cache has two levels. The query text's own key comes first, so a
// repeated text — a prepared lookup, a shard node's query — costs what
// it always did. A plain request that misses it tries the text's
// literal template (see PlanCache): a template seen once is prepared
// and checked on its second sighting, and from then on serves every
// text it admits whose cost guards hold; the request counts as one hit.
// A guard that fails re-plans cold and counts as a miss. EXPLAIN and
// vet requests, whose answers carry literal-derived numbers, and
// parameterized ones stay on the text key.
func (s *Server) plan(engine *sqlpp.Engine, opts sqlpp.Options, query string, paramNames []string, explain bool) (Plan, bool, error) {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.PlanCacheGet); err != nil {
			return Plan{}, false, err
		}
	}
	key := Key{Options: opts, Epoch: engine.IndexEpoch(), Params: strings.Join(paramNames, "\x00"), Explain: explain, Text: query}
	if p, ok := s.cache.peek(key); ok {
		s.cache.count(true)
		return p, true, nil
	}

	var tkey Key
	var lits sqlpp.Literals
	var state *templateState
	if !explain && !opts.Vet && len(paramNames) == 0 {
		var text []byte
		var ok bool
		if text, lits, ok = sqlpp.TemplateText(nil, query); ok {
			tkey = key
			tkey.Template, tkey.Text = true, string(text)
			if p, ok := s.cache.peek(tkey); ok {
				state = p.tmpl
			}
			if state != nil && state.admitted != nil {
				if bound, ok := state.admitted.Bind(lits); ok {
					s.cache.count(true)
					return Plan{Prepared: bound}, true, nil
				}
				s.metrics.TemplateReplans.Add(1)
			}
		}
	}

	s.cache.count(false)
	var p Plan
	if len(paramNames) > 0 {
		pp, err := engine.PrepareParams(query, paramNames...)
		if err != nil {
			return Plan{}, false, err
		}
		p = Plan{Params: pp}
	} else {
		prep, err := engine.Prepare(query)
		if err != nil {
			return Plan{}, false, err
		}
		p = Plan{Prepared: prep}
	}
	s.cache.Put(key, p)
	if tkey.Template && state == nil {
		s.cache.Put(tkey, Plan{tmpl: &templateState{}})
	} else if tkey.Template && state.admitted == nil && !state.literalOnly {
		s.cache.Put(tkey, Plan{tmpl: s.admit(engine, query, p.Prepared, lits)})
	}
	return p, false, nil
}

// admit prepares a template on its second sighting and decides its
// state: admitted when, bound to this text's literals, it is the cold
// preparation lit of this text; literal-only otherwise.
func (s *Server) admit(engine *sqlpp.Engine, query string, lit *sqlpp.Prepared, lits sqlpp.Literals) *templateState {
	t, err := engine.PrepareTemplate(query, lits)
	if err != nil || !t.Admits(lit, lits) {
		s.metrics.TemplatesLiteralOnly.Add(1)
		return &templateState{literalOnly: true}
	}
	s.metrics.TemplatesAdmitted.Add(1)
	return &templateState{admitted: t}
}

// convertParams maps the request's JSON parameters to SQL++ values,
// returning the sorted name list used in the cache key.
func convertParams(in map[string]any) (map[string]value.Value, []string, error) {
	if len(in) == 0 {
		return nil, nil, nil
	}
	out := make(map[string]value.Value, len(in))
	names := make([]string, 0, len(in))
	for name, raw := range in {
		v, err := jsonToValue(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("param %q: %w", name, err)
		}
		out[name] = v
		names = append(names, name)
	}
	sort.Strings(names)
	return out, names, nil
}

// jsonToValue converts a decoded JSON value (with json.Number for
// numbers) to the engine's value model. Object attributes are emitted
// in sorted key order so conversion is deterministic.
func jsonToValue(x any) (value.Value, error) {
	switch v := x.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.Bool(v), nil
	case string:
		return value.String(v), nil
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return value.Int(i), nil
		}
		f, err := v.Float64()
		if err != nil {
			return nil, fmt.Errorf("bad number %q", v.String())
		}
		return value.Float(f), nil
	case []any:
		out := make(value.Array, 0, len(v))
		for _, el := range v {
			ev, err := jsonToValue(el)
			if err != nil {
				return nil, err
			}
			out = append(out, ev)
		}
		return out, nil
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([]value.Value, len(keys))
		for i, k := range keys {
			ev, err := jsonToValue(v[k])
			if err != nil {
				return nil, err
			}
			vals[i] = ev
		}
		return value.ShapeOf(keys...).New(vals), nil
	}
	return nil, fmt.Errorf("unsupported JSON value %T", x)
}

// jsonContentType is the Content-Type of every JSON answer, shared so
// that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeResult answers a query: {"result": v in the requested format,
// then resp's fields}. The result is encoded once, straight into the
// response, through a pooled datafmt.JSONWriter; "sion" and "pretty"
// carry their rendering as one JSON string. An answer that fits in one
// chunk goes out in one write; a longer one streams. The Content-Length
// is left to net/http, which sets one only after the handler returns, so
// no client holds a whole answer while its handler still runs. The
// status line goes out with the first chunk, so a result that cannot be
// encoded (MISSING) is still a 422 unless it fails more than a chunk in —
// then the body ends short of valid JSON.
func (s *Server) writeResult(w http.ResponseWriter, v value.Value, format string, resp *queryResponse) {
	w.Header()["Content-Type"] = jsonContentType
	jw := datafmt.NewJSONWriter(w)
	defer jw.Release()
	jw.Raw(`{"result":`)
	var err error
	switch format {
	case "", "json":
		err = jw.Value(v)
	case "sion":
		jw.String(v.String())
	case "pretty":
		jw.String(value.Pretty(v))
	default:
		err = fmt.Errorf("unknown result format %q (want json, sion, pretty, or cbor)", format)
	}
	if err == nil {
		err = resp.writeFields(jw)
	}
	if err != nil {
		if jw.Written() == 0 {
			s.fail(w, http.StatusUnprocessableEntity, "encode result: %v", err)
			return
		}
		s.metrics.Errors.Add(1)
		return
	}
	jw.Raw("}\n")
	_ = jw.Flush() // a client that went away is not an error of the query's
}

// writeFields appends resp's fields to an envelope whose "result" jw has
// written, leaving the object open.
func (resp *queryResponse) writeFields(jw *datafmt.JSONWriter) error {
	jw.Raw(`,"cached":`)
	jw.Bool(resp.Cached)
	jw.Raw(`,"elapsed_us":`)
	jw.Int(resp.ElapsedUS)
	writeStrings(jw, `,"plan":[`, resp.Plan)
	// The operator tree and the diagnostics come only with explain and
	// vet; they keep encoding/json.
	if resp.Stats != nil {
		if err := writeMarshaled(jw, `,"stats":`, resp.Stats); err != nil {
			return err
		}
	}
	if len(resp.Diagnostics) > 0 {
		if err := writeMarshaled(jw, `,"diagnostics":`, resp.Diagnostics); err != nil {
			return err
		}
	}
	if resp.Class != "" {
		jw.Raw(`,"class":`)
		jw.String(resp.Class)
	}
	if resp.Sharded != "" {
		jw.Raw(`,"sharded":`)
		jw.String(resp.Sharded)
	}
	writeStrings(jw, `,"missing_shards":[`, resp.MissingShards)
	return nil
}

// writeStrings appends key (`,"name":[`), ss's elements and the closing
// bracket, unless ss is empty.
func writeStrings(jw *datafmt.JSONWriter, key string, ss []string) {
	if len(ss) == 0 {
		return
	}
	jw.Raw(key)
	for i, x := range ss {
		if i > 0 {
			jw.Raw(",")
		}
		jw.String(x)
	}
	jw.Raw("]")
}

// writeMarshaled appends key (`,"name":`) and x as encoding/json
// encodes it.
func writeMarshaled(jw *datafmt.JSONWriter, key string, x any) error {
	b, err := json.Marshal(x)
	if err != nil {
		return err
	}
	jw.Raw(key)
	jw.Raw(string(b))
	return nil
}

// writeCBOR streams v to the client as one CBOR item, with no envelope
// and no intermediate copy of the encoding. The status line goes out with
// the first chunk, so a result that cannot be encoded (MISSING) is still
// a 422 unless it fails more than a chunk in — then the body ends short
// of what its collection heads announce and cannot decode as complete.
func (s *Server) writeCBOR(w http.ResponseWriter, v value.Value) {
	w.Header().Set("Content-Type", datafmt.CBORContentType)
	if n, err := datafmt.WriteCBOR(w, v); err != nil {
		if n == 0 {
			s.fail(w, http.StatusUnprocessableEntity, "encode result: %v", err)
			return
		}
		s.metrics.Errors.Add(1)
	}
}

// handleIngest decodes a request body and registers it under the path's
// collection name, or with ?mode=append appends it to the collection. The
// format comes from ?format=, else from the Content-Type; it is the
// paper's object notation when neither names one.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "missing collection name")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = r.Header.Get("Content-Type")
		if _, ok := datafmt.FormatOf(format); !ok {
			format = "sion"
		}
	}
	var err error
	if faultinject.Enabled {
		err = faultinject.Fire(faultinject.IngestDecode)
	}
	var v value.Value
	if err == nil {
		v, err = datafmt.Decode(format, declaredBody{http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength})
	}
	status := http.StatusCreated
	if err == nil {
		// An append costs the rows it adds, not the collection: the
		// catalog writes them into its growable tail and adds one segment
		// to each secondary index.
		if r.URL.Query().Get("mode") == "append" {
			err, status = s.engine.Append(name, v), http.StatusOK
		} else {
			err = s.engine.Register(name, v)
		}
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, "ingest %s: %v", name, err)
		return
	}

	// Compiled plans bake in name resolution against the catalog's name
	// set, so any registration invalidates them.
	s.cache.Purge()
	s.metrics.Ingests.Add(1)

	count := -1
	if v, ok := s.engine.Lookup(name); ok {
		if els, ok := value.Elements(v); ok {
			count = len(els)
		} else {
			count = 1
		}
	}
	writeJSON(w, status, map[string]any{"name": name, "count": count})
}

// declaredBody is a request body that tells datafmt.Decode the length its
// client declared, which a format read whole is buffered by.
type declaredBody struct {
	io.Reader
	declared int64
}

// Len implements the length datafmt.Decode looks for.
func (b declaredBody) Len() int { return int(min(max(b.declared, 0), 1<<30)) }

// handleCollections lists the registered names and namespaces.
func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"collections": s.engine.Names()})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"collections": len(s.engine.Names()),
		"uptime_s":    int64(time.Since(s.started).Seconds()),
	})
}

// handleReadyz is the readiness probe. Unlike /healthz (alive at all),
// it reports whether the server should receive new traffic: false while
// draining for shutdown and while the admission queue is saturated, so
// load balancers route around a busy or departing instance.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	waiting := s.waiting.Load()
	status := http.StatusOK
	state := "ready"
	switch {
	case draining:
		status = http.StatusServiceUnavailable
		state = "draining"
	case waiting > 0:
		status = http.StatusServiceUnavailable
		state = "saturated"
	}
	body := map[string]any{
		"draining": draining,
		"waiting":  waiting,
		"inflight": s.inflight.Load(),
	}
	// Coordinator mode folds the fleet in: the probe aggregates shard
	// readiness under the partial-failure policy (fail-fast needs every
	// shard, partial needs one) so load balancers route around a
	// coordinator whose fleet cannot answer.
	if s.coord != nil {
		ready, states, unready := s.shardReadiness(r.Context())
		body["shards"] = states
		if len(unready) > 0 {
			body["unready_shards"] = unready
		}
		if !ready && status == http.StatusOK {
			status = http.StatusServiceUnavailable
			state = "shards-unready"
		}
	}
	body["status"] = state
	writeJSON(w, status, body)
}

// handleMetrics renders the plain-text counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteTo(w, s.cache.Hits(), s.cache.Misses(), s.cache.Len(), s.inflight.Load(), s.waiting.Load(), s.draining.Load())
	if s.coord != nil {
		s.writeShardMetrics(w)
	}
}
