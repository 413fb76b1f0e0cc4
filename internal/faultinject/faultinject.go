// Package faultinject is a build-tag-gated fault-injection harness for
// the chaos test battery. Engine and server hot paths carry named
// injection points; a binary built with the `faultinject` tag can arm
// any point with a deterministic schedule that returns errors, panics,
// or sleeps, proving that every injected fault degrades into a clean
// per-query error — never a process exit or a goroutine leak.
//
// In a normal build (no tag) Enabled is a constant false and Fire is an
// inlineable no-op, so every call site
//
//	if faultinject.Enabled {
//	    if err := faultinject.Fire(faultinject.ScanNext); err != nil { ... }
//	}
//
// is dead code the compiler deletes: production binaries pay nothing
// for the harness's existence.
package faultinject

// The named injection points. Each is a specific hot-path site chosen
// so the fault lands in a distinct recovery domain: row production,
// blocking-operator build, plan-cache lookup, ingest decoding, and
// parallel-worker startup.
const (
	// ScanNext fires per row produced by a FROM scan.
	ScanNext = "scan-next"
	// HashBuildInsert fires per row inserted into a hash-join build table.
	HashBuildInsert = "hash-build-insert"
	// PlanCacheGet fires per server plan-cache lookup.
	PlanCacheGet = "plan-cache-get"
	// IngestDecode fires per server collection-ingest decode.
	IngestDecode = "ingest-decode"
	// WorkerStart fires once per parallel-scan worker goroutine, before
	// it processes its first chunk row.
	WorkerStart = "worker-start"
	// IndexBuildInsert fires per element inserted into a secondary index
	// during a build or an incremental extend.
	IndexBuildInsert = "index-build-insert"
	// IndexProbeNext fires per candidate row produced by an index probe.
	IndexProbeNext = "index-probe-next"
	// StatsSketchAdd fires per element folded into a collection-statistics
	// sketch during a build or an incremental extend.
	StatsSketchAdd = "stats-sketch-add"
	// ShardExec fires per shard execution attempt, before the shard runs
	// its query — the scatter-gather layer's RPC boundary. Injected
	// errors are classified transient, exercising retries, hedging, the
	// circuit breaker, and the partial-failure policy.
	ShardExec = "shard-exec"
	// ShardGatherNext fires per row folded into the coordinator's
	// gather/merge accumulator.
	ShardGatherNext = "shard-gather-next"
	// Interpret fires at every entry to the tree-walking interpreter
	// (eval.Eval). Armed count-only (a zero Action), it shows that the
	// production path, which compiles every expression, never enters it.
	Interpret = "interpret"
)

// Points lists every injection point, for harness sweeps.
func Points() []string {
	return []string{ScanNext, HashBuildInsert, PlanCacheGet, IngestDecode, WorkerStart, IndexBuildInsert, IndexProbeNext, StatsSketchAdd, ShardExec, ShardGatherNext, Interpret}
}
