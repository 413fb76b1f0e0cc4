// Package shard implements fault-tolerant scatter-gather execution of
// SQL++ queries over partitioned collections.
//
// A Coordinator owns a set of shard Executors (in-process engines or
// remote sqlpp-serve instances speaking the HTTP/JSON protocol) plus a
// registry mapping collection names to partitioning specs. A query that
// ranges over a sharded collection is split into a per-shard query and
// a merge query:
//
//   - grouped aggregates run locally per shard and merge globally with
//     the COLL_* decomposition (COUNT → SUM of counts, SUM → SUM of
//     partial sums, AVG → SUM/COUNT pairs, MIN/MAX associatively). The
//     merge re-aggregates only when a group can span shards: if the
//     collection is hash-partitioned and a grouping key is its
//     partitioning key, each group's partial row is already final and
//     the merge reads it without grouping again;
//   - ORDER BY … LIMIT runs as local top-(limit+offset) per shard with
//     a coordinator-side merge re-sort;
//   - everything else streams back and concatenates in shard order;
//   - queries the splitter cannot prove mergeable fall back to
//     gathering the sharded collections whole and running the original
//     query unchanged, so every query stays correct.
//
// Under range (row-chunk) partitioning, merged results are
// byte-identical to single-node execution: chunking preserves row
// order, so GROUP BY first-seen order, ORDER BY tie order, and
// LIMIT/OFFSET windows reconstruct exactly. Hash partitioning keeps
// results deterministic for a fixed topology but may permute
// first-seen orders. Floating-point SUM/AVG re-associate across shards
// and may differ in the last ulp; integer aggregates are exact.
//
// The scatter is wrapped in a fault-tolerance layer (see Policy):
// per-shard deadlines derived from the query budget, bounded retries
// with exponential backoff + jitter that honor Retry-After hints from
// shedding shards, optional hedged requests for stragglers, a
// per-shard circuit breaker, and an explicit partial-failure policy
// (fail, or partial results annotated with the missing shards).
package shard

import (
	"fmt"
	"hash/fnv"
	"strings"

	"sqlpp/internal/value"
)

// Kind selects how a collection's elements are assigned to shards.
type Kind int

const (
	// Range partitions by row position into contiguous chunks, one per
	// shard, preserving global element order across the shard sequence.
	// This is the default and the only kind whose scatter-gather results
	// are byte-identical to single-node execution.
	Range Kind = iota
	// Hash partitions by the FNV-1a hash of the canonical encoding of
	// each element's key path (Spec.Key). Rows with equal keys land on
	// the same shard; global element order is not preserved.
	Hash
)

// String names the kind for specs and metrics.
func (k Kind) String() string {
	if k == Hash {
		return "hash"
	}
	return "range"
}

// ParseKind parses "range" or "hash".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "range", "":
		return Range, nil
	case "hash":
		return Hash, nil
	}
	return Range, fmt.Errorf("shard: unknown partitioning kind %q (want range or hash)", s)
}

// Spec declares how one collection is partitioned across the
// coordinator's shards.
type Spec struct {
	// Name is the (possibly dotted) collection name.
	Name string
	// Kind selects range (row chunks) or hash partitioning.
	Kind Kind
	// Key is the dotted path hashed under Hash partitioning (e.g.
	// "addr.zip"); ignored for Range.
	Key string
}

// Partition splits v's elements into n subcollections per spec,
// preserving v's array/bag kind on every part. Under Hash, an element
// whose key path is MISSING hashes as NULL: every absent key lands on
// one shard, so a GROUP BY on the key finds each of its groups whole on
// one shard even where the grouping does not tell NULL from MISSING
// (SQL compatibility mode, §IV-B) or navigation reaches NULL on one row
// and MISSING on another.
// governor:data-sized at Distribute time — the ingest path, same trust as Engine.Register
func Partition(v value.Value, spec Spec, n int) ([]value.Value, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition %s into %d shards", spec.Name, n)
	}
	elems, ok := value.Elements(v)
	if !ok {
		return nil, fmt.Errorf("shard: %s is not a collection (%v)", spec.Name, v.Kind())
	}
	parts := make([][]value.Value, n)
	switch spec.Kind {
	case Hash:
		path := strings.Split(spec.Key, ".")
		for _, e := range elems {
			i := hashBucket(keyAt(e, path), n)
			parts[i] = append(parts[i], e)
		}
	default: // Range: contiguous chunks, ceil-sized so early shards fill first.
		per := (len(elems) + n - 1) / n
		for i := range parts {
			lo := i * per
			hi := lo + per
			if lo > len(elems) {
				lo = len(elems)
			}
			if hi > len(elems) {
				hi = len(elems)
			}
			parts[i] = elems[lo:hi]
		}
	}
	out := make([]value.Value, n)
	isArray := v.Kind() == value.KindArray
	for i, p := range parts {
		part := append([]value.Value(nil), p...)
		if isArray {
			out[i] = value.Array(part)
		} else {
			out[i] = value.Bag(part)
		}
	}
	return out, nil
}

// keyAt navigates e along the dotted path, yielding MISSING where
// navigation fails — the same absent-key slotting the secondary indexes
// use, so partitioning never errors on heterogeneous rows.
func keyAt(e value.Value, path []string) value.Value {
	cur := e
	for _, step := range path {
		if step == "" {
			continue
		}
		t, ok := cur.(*value.Tuple)
		if !ok {
			return value.Missing
		}
		v, ok := t.Get(step)
		if !ok {
			return value.Missing
		}
		cur = v
	}
	return cur
}

// hashBucket maps a key value to a shard index by FNV-1a over its
// canonical encoding (value.AppendKey), so values that compare equal
// hash equal regardless of representation. MISSING hashes as NULL.
func hashBucket(k value.Value, n int) int {
	if k.Kind() == value.KindMissing {
		k = value.Null
	}
	h := fnv.New64a()
	h.Write(value.AppendKey(nil, k))
	return int(h.Sum64() % uint64(n))
}

// ShardError reports a scatter aborted by a shard failure under the
// fail policy. Unwrap exposes the underlying cause, so errors.Is/As
// reach through to context deadlines, resource errors, and injected
// faults.
type ShardError struct {
	// Shard names the failing shard executor.
	Shard string
	// Attempts is how many attempts ran before giving up.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

// Error describes the failure.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %s failed after %d attempt(s): %v", e.Shard, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *ShardError) Unwrap() error { return e.Err }

// ErrBreakerOpen is the cause recorded when a shard's circuit breaker
// rejects a call without attempting it.
var ErrBreakerOpen = fmt.Errorf("shard: circuit breaker open")
