package server

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyRingPercentiles(t *testing.T) {
	var r latencyRing
	if p := r.percentiles(0.5); p[0] != 0 {
		t.Errorf("empty ring p50 = %v, want 0", p[0])
	}
	// 1..100ms: p50 ≈ 51ms, p95 ≈ 96ms, p99 ≈ 100ms (nearest rank).
	for i := 1; i <= 100; i++ {
		r.observe(time.Duration(i) * time.Millisecond)
	}
	p := r.percentiles(0.50, 0.95, 0.99)
	if p[0] < 50*time.Millisecond || p[0] > 52*time.Millisecond {
		t.Errorf("p50 = %v", p[0])
	}
	if p[1] < 95*time.Millisecond || p[1] > 97*time.Millisecond {
		t.Errorf("p95 = %v", p[1])
	}
	if p[2] < 99*time.Millisecond || p[2] > 100*time.Millisecond {
		t.Errorf("p99 = %v", p[2])
	}
}

func TestLatencyRingWraps(t *testing.T) {
	var r latencyRing
	// Overfill the ring; only the newest ringSize observations remain.
	for i := 0; i < ringSize+500; i++ {
		r.observe(time.Duration(i) * time.Microsecond)
	}
	if r.n != ringSize {
		t.Fatalf("fill count = %d, want %d", r.n, ringSize)
	}
	p := r.percentiles(0.0)
	if p[0] < 500*time.Microsecond {
		t.Errorf("minimum %v predates the window (old entries not overwritten)", p[0])
	}
}

func TestMetricsRender(t *testing.T) {
	var m Metrics
	m.Requests.Add(3)
	m.Errors.Add(1)
	m.Observe(2 * time.Millisecond)
	m.TemplatesAdmitted.Add(4)
	m.TemplatesLiteralOnly.Add(1)
	m.TemplateReplans.Add(6)

	var sb strings.Builder
	m.WriteTo(&sb, 5, 7, 2, 1, 0, false)
	out := sb.String()
	for _, want := range []string{
		"sqlpp_requests_total 3",
		"sqlpp_errors_total 1",
		"sqlpp_plan_cache_hits_total 5",
		"sqlpp_plan_cache_misses_total 7",
		"sqlpp_plan_cache_entries 2",
		"sqlpp_plan_cache_templates_admitted_total 4",
		"sqlpp_plan_cache_templates_literal_only_total 1",
		"sqlpp_plan_cache_template_replans_total 6",
		"sqlpp_inflight_queries 1",
		"sqlpp_latency_p50_us 2000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
