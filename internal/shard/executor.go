package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// ExecOptions is the per-request slice of engine options a coordinator
// forwards to every shard, so a request-level compat/strict/limit
// override applies uniformly across the fleet.
type ExecOptions struct {
	Compat           bool
	Strict           bool
	DisableOptimizer bool
	Parallelism      int
	MaxRows          int64
	MaxBytes         int64
}

// OptionsFrom extracts the forwardable slice of engine options.
func OptionsFrom(o sqlpp.Options) ExecOptions {
	return ExecOptions{
		Compat:           o.Compat,
		Strict:           o.StopOnError,
		DisableOptimizer: o.DisableOptimizer,
		Parallelism:      o.Parallelism,
		MaxRows:          o.Limits.MaxOutputRows,
		MaxBytes:         o.Limits.MaxMaterializedBytes,
	}
}

// apply overlays the forwarded options onto an engine's base options.
func (eo ExecOptions) apply(base sqlpp.Options) sqlpp.Options {
	base.Compat = eo.Compat
	base.StopOnError = eo.Strict
	base.DisableOptimizer = eo.DisableOptimizer
	base.Parallelism = eo.Parallelism
	base.Limits.MaxOutputRows = eo.MaxRows
	base.Limits.MaxMaterializedBytes = eo.MaxBytes
	return base
}

// Request is one shard-level query execution.
type Request struct {
	// Query is SQL++ text (a per-shard split, or a bare collection name
	// for gathers).
	Query string
	// Options forwards the request-level engine options.
	Options ExecOptions
	// Explain asks for the per-operator stats tree alongside the result.
	Explain bool
}

// Response is a shard's answer.
type Response struct {
	// Value is the query result.
	Value value.Value
	// Stats is the shard-local EXPLAIN ANALYZE tree when Explain was set
	// (and the transport carries one).
	Stats *eval.StatsSnapshot
}

// Executor runs queries on one shard. Implementations must be safe for
// concurrent use; hedged requests run two Execs at once.
type Executor interface {
	// Name identifies the shard in errors, annotations, and metrics.
	Name() string
	// Exec runs one query under ctx. Errors that may succeed on retry
	// (transport failures, shedding, attempt deadlines) are marked with
	// Transient; all others are treated as semantic and final.
	Exec(ctx context.Context, req Request) (*Response, error)
	// Ready probes whether the shard can serve queries.
	Ready(ctx context.Context) error
	// Register installs a collection on the shard (data distribution).
	Register(name string, v value.Value) error
}

// transientErr marks an error as retryable and optionally carries a
// shard's Retry-After backoff hint.
type transientErr struct {
	err        error
	retryAfter time.Duration
}

func (t *transientErr) Error() string { return t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient marks err as retryable.
func Transient(err error) error { return &transientErr{err: err} }

// TransientHint marks err as retryable with a shard-supplied minimum
// backoff (the Retry-After of a shedding shard).
func TransientHint(err error, retryAfter time.Duration) error {
	return &transientErr{err: err, retryAfter: retryAfter}
}

// IsTransient reports whether err is retryable, and any Retry-After
// hint attached to it.
func IsTransient(err error) (time.Duration, bool) {
	var t *transientErr
	if errors.As(err, &t) {
		return t.retryAfter, true
	}
	return 0, false
}

// answeredErr marks an error a shard answered well-formed: the query
// failed (it does not compile, faults in strict mode, exceeds a budget),
// not the shard. It is final, and the circuit breaker does not count it.
type answeredErr struct{ err error }

func (a *answeredErr) Error() string { return a.err.Error() }
func (a *answeredErr) Unwrap() error { return a.err }

// Answered marks err as the shard's well-formed answer.
func Answered(err error) error { return &answeredErr{err: err} }

// IsAnswered reports whether err is a shard's well-formed answer rather
// than a failure to get one.
func IsAnswered(err error) bool {
	var a *answeredErr
	return errors.As(err, &a)
}

// LocalExecutor runs shard queries on an in-process engine — the
// single-binary topology, and the deterministic substrate for tests
// and benchmarks.
type LocalExecutor struct {
	name   string
	engine *sqlpp.Engine
}

// NewLocal wraps an engine as a shard executor.
func NewLocal(name string, engine *sqlpp.Engine) *LocalExecutor {
	return &LocalExecutor{name: name, engine: engine}
}

// Name identifies the shard.
func (x *LocalExecutor) Name() string { return x.name }

// Engine exposes the underlying engine (tests, data loading).
func (x *LocalExecutor) Engine() *sqlpp.Engine { return x.engine }

// Ready reports readiness; an in-process engine always is.
func (x *LocalExecutor) Ready(ctx context.Context) error { return nil }

// Register installs a collection on the shard's engine.
func (x *LocalExecutor) Register(name string, v value.Value) error {
	return x.engine.Register(name, v)
}

// Exec runs the query on the shard engine under ctx. The shard-exec
// fault point models a transport failure: its injected errors are
// transient, exercising the retry path.
func (x *LocalExecutor) Exec(ctx context.Context, req Request) (*Response, error) {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.ShardExec); err != nil {
			return nil, Transient(fmt.Errorf("shard %s: %w", x.name, err))
		}
	}
	eng := x.engine.WithOptions(req.Options.apply(x.engine.Options()))
	p, err := eng.Prepare(req.Query)
	if err != nil {
		return nil, Answered(fmt.Errorf("shard %s: compile: %w", x.name, err))
	}
	if req.Explain {
		v, st, err := p.ExplainAnalyze(ctx)
		if err != nil {
			return nil, x.classify(err)
		}
		return &Response{Value: v, Stats: st}, nil
	}
	v, err := p.ExecContext(ctx)
	if err != nil {
		return nil, x.classify(err)
	}
	return &Response{Value: v}, nil
}

// classify wraps execution errors: deadline expiry and recovered panics
// are transient (a retry may land inside the remaining budget or on a
// healthy replica); semantic errors are final, and answered.
func (x *LocalExecutor) classify(err error) error {
	wrapped := fmt.Errorf("shard %s: %w", x.name, err)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return Transient(wrapped)
	}
	var pe *sqlpp.PanicError
	if errors.As(err, &pe) {
		return Transient(wrapped)
	}
	return Answered(wrapped)
}

// HTTPExecutor runs shard queries on a remote sqlpp-serve data node
// through its stock HTTP protocol. It asks for the result as CBOR by
// content negotiation (Accept: application/cbor) and decodes the body as
// it arrives; a node that predates CBOR responses ignores the header and
// answers with the JSON envelope holding the paper's object notation
// (format "sion"), which is accepted too. Both are lossless for bag/array
// kinds, so remote shards merge bit-identically to local ones. The data
// node's own admission gate, governor, and deadline machinery provide
// per-shard backpressure; its 429 + Retry-After shedding surfaces here as
// a transient error carrying the backoff hint.
type HTTPExecutor struct {
	name   string
	base   string
	client *http.Client
	// maxBody bounds how much of a response body is read.
	maxBody int64
}

// maxResponseBytes is the most a data node may answer with; a larger
// body is an error rather than a coordinator out of memory.
const maxResponseBytes = 1 << 30

// NewHTTP builds an executor for the data node at baseURL (e.g.
// "http://10.0.0.7:8642"). client nil uses a dedicated default client.
func NewHTTP(name, baseURL string, client *http.Client) *HTTPExecutor {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPExecutor{name: name, base: trimSlash(baseURL), client: client, maxBody: maxResponseBytes}
}

// trimSlash trims a trailing slash so path joins stay canonical.
func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Name identifies the shard.
func (x *HTTPExecutor) Name() string { return x.name }

// Ready probes GET /readyz.
func (x *HTTPExecutor) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, x.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := x.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: readyz %s", x.name, resp.Status)
	}
	return nil
}

// Register ingests the collection on the data node in object notation.
func (x *HTTPExecutor) Register(name string, v value.Value) error {
	u := x.base + "/v1/collections/" + url.PathEscape(name) + "?format=sion"
	resp, err := x.client.Post(u, "text/plain", bytes.NewBufferString(v.String()))
	if err != nil {
		return fmt.Errorf("shard %s: register %s: %w", x.name, name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("shard %s: register %s: %s: %s", x.name, name, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// wireRequest mirrors the server's queryRequest.
type wireRequest struct {
	Query     string      `json:"query"`
	Options   wireOptions `json:"options"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	Format    string      `json:"format"`
	Explain   string      `json:"explain,omitempty"`
}

// wireOptions mirrors the server's queryOptions (pointer fields so the
// node's own defaults are overridden explicitly).
type wireOptions struct {
	Compat           *bool  `json:"compat"`
	Strict           *bool  `json:"strict"`
	DisableOptimizer *bool  `json:"disable_optimizer"`
	Parallelism      *int   `json:"parallelism"`
	MaxRows          *int64 `json:"max_rows"`
	MaxBytes         *int64 `json:"max_bytes"`
}

// wireResponse mirrors the server's queryResponse/errorResponse union.
type wireResponse struct {
	Result json.RawMessage     `json:"result"`
	Stats  *eval.StatsSnapshot `json:"stats"`
	Error  string              `json:"error"`
}

// Exec posts the query to the data node and decodes its answer.
func (x *HTTPExecutor) Exec(ctx context.Context, req Request) (*Response, error) {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.ShardExec); err != nil {
			return nil, Transient(fmt.Errorf("shard %s: %w", x.name, err))
		}
	}
	wr := wireRequest{
		Query:  req.Query,
		Format: "sion",
		Options: wireOptions{
			Compat:           &req.Options.Compat,
			Strict:           &req.Options.Strict,
			DisableOptimizer: &req.Options.DisableOptimizer,
			Parallelism:      &req.Options.Parallelism,
			MaxRows:          &req.Options.MaxRows,
			MaxBytes:         &req.Options.MaxBytes,
		},
	}
	if req.Explain {
		wr.Explain = "analyze"
	}
	// Forward the attempt deadline so the data node's governor stops the
	// query server-side too, not only at the client socket.
	if dl, ok := ctx.Deadline(); ok {
		// noclock: the wire timeout must be relative to the real clock the
		// HTTP transport enforces the deadline against; chaos tests stub
		// the Executor itself, so no fake-clock schedule flows through.
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wr.TimeoutMS = ms
	}
	body, err := json.Marshal(wr)
	if err != nil {
		return nil, fmt.Errorf("shard %s: encode: %w", x.name, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, x.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", x.name, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", datafmt.CBORContentType)
	hresp, err := x.client.Do(hreq)
	if err != nil {
		// Transport-level failure: connection refused, reset, deadline.
		return nil, Transient(fmt.Errorf("shard %s: %w", x.name, err))
	}
	defer hresp.Body.Close()
	resp, err := x.decode(hresp)
	if err != nil {
		// Wrapping keeps a transient mark (and its backoff hint) reachable.
		return nil, fmt.Errorf("shard %s: %w", x.name, err)
	}
	return resp, nil
}

// decode reads a data node's answer, whichever form it took: a CBOR item
// streamed into values as it arrives, or the JSON envelope (every error,
// every EXPLAIN answer, and every answer of a node that predates CBOR).
// Either the whole result decodes or an error is returned; a body cut
// short may be complete on a retry, so that error is transient.
func (x *HTTPExecutor) decode(hresp *http.Response) (*Response, error) {
	body := &io.LimitedReader{R: hresp.Body, N: x.maxBody + 1}
	oversized := func() error {
		return fmt.Errorf("response body exceeds %d bytes", x.maxBody)
	}
	ctype, _, _ := mime.ParseMediaType(hresp.Header.Get("Content-Type"))
	if hresp.StatusCode == http.StatusOK && ctype == datafmt.CBORContentType {
		v, err := datafmt.DecodeCBORFrom(body)
		switch {
		case body.N <= 0:
			return nil, oversized()
		case err == nil:
			return &Response{Value: v}, nil
		}
		var syn *datafmt.CBORSyntaxError
		if errors.As(err, &syn) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("decode result: %w", err)
		}
		return nil, Transient(fmt.Errorf("read response: %w", err))
	}
	raw, err := io.ReadAll(body)
	if body.N <= 0 {
		return nil, oversized()
	}
	if err != nil {
		return nil, Transient(fmt.Errorf("read response: %w", err))
	}
	var wresp wireResponse
	jerr := json.Unmarshal(raw, &wresp)
	if hresp.StatusCode != http.StatusOK {
		msg := wresp.Error
		if msg == "" {
			msg = hresp.Status
		}
		ferr := fmt.Errorf("%s", msg)
		switch hresp.StatusCode {
		case http.StatusTooManyRequests:
			// A shedding shard names its own backoff; honor it.
			return nil, TransientHint(ferr, parseRetryAfter(hresp.Header.Get("Retry-After")))
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout,
			http.StatusInternalServerError, http.StatusBadGateway:
			return nil, Transient(ferr)
		}
		if hresp.StatusCode/100 == 4 && jerr == nil && wresp.Error != "" {
			// A client error in a well-formed envelope: the node rejected
			// the query, and is healthy.
			return nil, Answered(ferr)
		}
		return nil, ferr
	}
	if ctype != "application/json" {
		return nil, fmt.Errorf("unexpected response content type %q", hresp.Header.Get("Content-Type"))
	}
	if jerr != nil {
		return nil, fmt.Errorf("decode response: %w", jerr)
	}
	if wresp.Error != "" {
		return nil, fmt.Errorf("status 200 with error: %s", wresp.Error)
	}
	// format "sion" returns the rendered text as a JSON string; parse it
	// back to a value losslessly.
	var text string
	if err := json.Unmarshal(wresp.Result, &text); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	v, err := sqlpp.ParseValue(text)
	if err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	return &Response{Value: v, Stats: wresp.Stats}, nil
}

// parseRetryAfter parses a whole-seconds Retry-After header; 0 when
// absent or malformed.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	secs, err := strconv.ParseInt(s, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
