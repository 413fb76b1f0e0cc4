package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"sqlpp"
	"sqlpp/internal/shard"
	"sqlpp/internal/value"
)

// Coordinator returns the scatter-gather coordinator when the server
// runs in coordinator mode, nil otherwise.
func (s *Server) Coordinator() *shard.Coordinator { return s.coord }

// handleShardedQuery is the coordinator-mode execution path: the query
// routes through the scatter-gather coordinator instead of the local
// plan cache, and the response carries the scatter class, the
// missing-shards annotation, and the composite EXPLAIN ANALYZE tree.
func (s *Server) handleShardedQuery(ctx context.Context, w http.ResponseWriter, req queryRequest, opts sqlpp.Options, params map[string]value.Value, explain bool) {
	if req.Vet {
		s.fail(w, http.StatusBadRequest, "vet is not supported in coordinator mode")
		return
	}
	mode, ok := shard.ParseFailMode(req.OnFailure)
	if !ok {
		s.fail(w, http.StatusBadRequest, "unknown on_failure mode %q (want \"fail\" or \"partial\")", req.OnFailure)
		return
	}
	eo := shard.OptionsFrom(opts)
	start := time.Now()
	res, err := s.coord.ExecRequest(ctx, shard.ExecRequest{
		Query:     req.Query,
		Params:    params,
		Options:   &eo,
		Explain:   explain,
		OnFailure: &mode,
	})
	elapsed := time.Since(start)
	if err != nil {
		s.shardedError(w, err, elapsed)
		return
	}
	s.metrics.Observe(elapsed)
	if res.Stats != nil {
		s.metrics.ObserveOps(res.Stats)
	}
	if req.Format == "cbor" {
		// The one annotation that changes what the result means travels as
		// a header when there is no envelope to carry it.
		if len(res.MissingShards) > 0 {
			w.Header().Set("Sqlpp-Missing-Shards", strings.Join(res.MissingShards, ","))
		}
		s.writeCBOR(w, res.Value)
		return
	}
	s.writeResult(w, res.Value, req.Format, &queryResponse{
		ElapsedUS:     elapsed.Microseconds(),
		Plan:          res.Notes,
		Stats:         res.Stats,
		Sharded:       res.Sharded,
		Class:         res.Class,
		MissingShards: res.MissingShards,
	})
}

// shardedError maps a coordinator failure to a status: deadline → 504,
// governor budget → 422 with the resource detail, contained panic →
// 500, shard failure (retries exhausted, breaker open, or fail-fast
// policy) → 502 Bad Gateway — the coordinator is fine, a data node is
// not.
func (s *Server) shardedError(w http.ResponseWriter, err error, elapsed time.Duration) {
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

// shardReadiness aggregates the fleet's readiness under the
// partial-failure policy: fail-fast needs every shard ready, partial
// needs at least one. It reports the per-shard states and the unready
// list for the probe body.
func (s *Server) shardReadiness(ctx context.Context) (ready bool, states map[string]string, unready []string) {
	pctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	probes := s.coord.Ready(pctx)
	states = make(map[string]string, len(probes))
	okCount := 0
	for name, err := range probes {
		if err == nil {
			states[name] = "ready"
			okCount++
			continue
		}
		states[name] = err.Error()
		unready = append(unready, name)
	}
	sort.Strings(unready)
	if s.coord.Policy().OnFailure == shard.Partial {
		return okCount > 0, states, unready
	}
	return len(unready) == 0, states, unready
}

// writeShardMetrics renders the coordinator's fault-tolerance counters:
// fleet totals plus per-shard breakdowns, names mangled like the
// sqlpp_op_* gauges.
func (s *Server) writeShardMetrics(w io.Writer) {
	tele := s.coord.Telemetry()
	var retries, hedges, opens, open int64
	for _, t := range tele {
		retries += t.Retries
		hedges += t.Hedges
		opens += t.BreakerOpens
		if t.BreakerOpen {
			open++
		}
	}
	fmt.Fprintf(w, "sqlpp_shard_retries_total %d\n", retries)
	fmt.Fprintf(w, "sqlpp_shard_hedges_total %d\n", hedges)
	fmt.Fprintf(w, "sqlpp_shard_breaker_open %d\n", open)
	fmt.Fprintf(w, "sqlpp_shard_breaker_opens_total %d\n", opens)
	for _, t := range tele {
		id := strings.ReplaceAll(strings.ReplaceAll(t.Shard, "-", "_"), ".", "_")
		openGauge := 0
		if t.BreakerOpen {
			openGauge = 1
		}
		fmt.Fprintf(w, "sqlpp_shard_%s_retries_total %d\n", id, t.Retries)
		fmt.Fprintf(w, "sqlpp_shard_%s_hedges_total %d\n", id, t.Hedges)
		fmt.Fprintf(w, "sqlpp_shard_%s_breaker_open %d\n", id, openGauge)
	}
}
