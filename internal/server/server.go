// Package server implements the SQL++ query service: a concurrent HTTP
// JSON API over an embedded Engine. It is the network face of the
// engine's Options/Prepared surface — requests compile through an LRU
// prepared-plan cache, execute under a bounded-concurrency admission
// gate with per-request deadlines, and the deadlines reach the plan's
// row-production loops through the engine's cooperative cancellation,
// so a runaway cross join stops instead of pinning a worker.
//
// Endpoints:
//
//	POST /v1/query               run a query
//	                             body: {"query", "params", "options", "timeout_ms", "format"}
//	POST /v1/collections/{name}  ingest a collection (?format=sion|json|jsonl|csv|cbor;
//	                             ?mode=append, in any of them, extends it and its indexes
//	                             incrementally)
//	GET  /v1/collections         list registered collections
//	POST /v1/indexes             create a secondary index
//	                             body: {"name", "collection", "path", "kind"}
//	DELETE /v1/indexes/{name}    drop a secondary index
//	GET  /v1/indexes             list secondary indexes
//	GET  /healthz                liveness probe
//	GET  /metrics                plain-text counters and latency percentiles
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sqlpp"
	"sqlpp/internal/shard"
)

// Config tunes the service. The zero value selects the defaults noted
// on each field.
type Config struct {
	// MaxConcurrent bounds queries executing at once; excess requests
	// wait at the gate until a slot frees or their deadline fires.
	// Default: 4 × GOMAXPROCS.
	MaxConcurrent int
	// DefaultTimeout applies when a request names no timeout_ms.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default: 5m.
	MaxTimeout time.Duration
	// PlanCacheSize is the number of compiled plans kept; <= -1
	// disables the cache. Default (0): 256.
	PlanCacheSize int
	// MaxBodyBytes caps request bodies (ingest payloads dominate).
	// Default: 32 MiB.
	MaxBodyBytes int64
	// MaxQueueWait bounds how long a request may wait at the admission
	// gate before the server sheds it with 429 + Retry-After. Waiting
	// also ends early if the request's own deadline fires. Default: 2s.
	MaxQueueWait time.Duration
	// MaxOutputRows is the server-wide cap on a query's output-row
	// budget: requests asking for more (or for no limit) are clamped down
	// to it. 0 leaves the budget to the request/engine. See the governor
	// (eval.Limits) for the budget semantics.
	MaxOutputRows int64
	// MaxMaterializedBytes is the server-wide cap on a query's
	// materialized-bytes budget, clamped like MaxOutputRows.
	MaxMaterializedBytes int64
	// Coordinator, when non-nil, switches the server into coordinator
	// mode: queries route through the scatter-gather coordinator (whose
	// engine should be the server's engine), /readyz aggregates shard
	// readiness under the partial-failure policy, and /metrics exports
	// the per-shard fault-tolerance counters.
	Coordinator *shard.Coordinator
}

func (c *Config) fillDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 2 * time.Second
	}
}

// Server is the HTTP query service. Create one with New; it implements
// http.Handler.
type Server struct {
	engine   *sqlpp.Engine
	cfg      Config
	coord    *shard.Coordinator
	cache    *PlanCache
	metrics  Metrics
	gate     chan struct{}
	inflight atomic.Int64
	// waiting counts requests blocked at the admission gate; a non-zero
	// value marks the queue as saturated for the readiness probe.
	waiting atomic.Int64
	// draining flips when shutdown begins: readiness goes false so load
	// balancers stop routing here, while in-flight queries finish.
	draining atomic.Bool
	started  time.Time
	mux      *http.ServeMux
}

// New builds a Server over engine. The engine's catalog is shared:
// values registered on it before or after New are visible to queries,
// and ingests through the API are visible to direct engine use.
func New(engine *sqlpp.Engine, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		engine:  engine,
		cfg:     cfg,
		coord:   cfg.Coordinator,
		cache:   NewPlanCache(cfg.PlanCacheSize),
		gate:    make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/collections/{name}", s.handleIngest)
	s.mux.HandleFunc("GET /v1/collections", s.handleCollections)
	s.mux.HandleFunc("POST /v1/indexes", s.handleIndexCreate)
	s.mux.HandleFunc("DELETE /v1/indexes/{name}", s.handleIndexDrop)
	s.mux.HandleFunc("GET /v1/indexes", s.handleIndexList)
	s.mux.HandleFunc("GET /v1/stats", s.handleStatsList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache exposes the plan cache (tests and metrics).
func (s *Server) Cache() *PlanCache { return s.cache }

// Metrics exposes the service counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Engine returns the underlying engine.
func (s *Server) Engine() *sqlpp.Engine { return s.engine }

// BeginShutdown flips the server into draining mode: the readiness
// probe starts failing (so load balancers stop routing here) and new
// queries are refused with 503, while queries already executing run to
// completion. Call it before http.Server.Shutdown so the drain window
// empties instead of filling.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// Waiting reports the number of requests queued at the admission gate.
func (s *Server) Waiting() int64 { return s.waiting.Load() }

// acquire claims an execution slot. A free slot is claimed immediately;
// otherwise the request queues for at most MaxQueueWait (or until its
// own deadline fires, whichever is sooner). It returns (false, true)
// when the bounded wait expired — the load-shedding signal the handler
// turns into 429 + Retry-After — and (false, false) when the request's
// context fired first.
func (s *Server) acquire(ctx context.Context) (ok, shed bool) {
	select {
	case s.gate <- struct{}{}:
		s.inflight.Add(1)
		return true, false
	default:
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	t := time.NewTimer(s.cfg.MaxQueueWait)
	defer t.Stop()
	select {
	case s.gate <- struct{}{}:
		s.inflight.Add(1)
		return true, false
	case <-t.C:
		s.metrics.Shed.Add(1)
		return false, true
	case <-ctx.Done():
		s.metrics.Rejected.Add(1)
		return false, false
	}
}

// retryAfterHint scales the shed hint with the current queue depth: an
// idle queue suggests retrying after half the queue wait, each waiting
// request adds half that again, and the hint caps at four queue waits.
// Deeper backlog means a stronger hint, and the coordinator's retry
// loop honors it as a floor under its jittered backoff, so a saturated
// data node sees its retry traffic spread out instead of stampeding.
func (s *Server) retryAfterHint() time.Duration {
	base := s.cfg.MaxQueueWait / 2
	if base < time.Second {
		base = time.Second
	}
	d := base + time.Duration(s.waiting.Load())*base/2
	if max := 4 * s.cfg.MaxQueueWait; d > max {
		d = max
	}
	return d
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.gate
}
