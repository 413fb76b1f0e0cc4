// Package catalog manages SQL++ named values: top-level bindings of
// (possibly dotted/namespaced) identifiers to values, as in the paper's
// hr.emp_nest_tuples. It is safe for concurrent readers with exclusive
// writers, matching the read-mostly usage of a query engine.
package catalog

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sqlpp/internal/eval"
	"sqlpp/internal/index"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// ShardMeta records how a collection is partitioned across a
// coordinator's shards. It lives in the catalog so topology changes
// bump the epoch — every plan fingerprint that folds the epoch in
// (server plan cache, coordinator scatter-plan cache) invalidates
// automatically when a collection is distributed or re-distributed.
type ShardMeta struct {
	// Kind is "range" or "hash".
	Kind string
	// Key is the hash key path ("" for range).
	Key string
	// Shards is the shard count the collection was partitioned into.
	Shards int
}

// Catalog is a set of named values plus the secondary indexes and
// statistics declared over them. The zero value is not usable; call New.
type Catalog struct {
	mu      sync.RWMutex
	named   map[string]value.Value
	indexes map[string]*index.Index      // by index name
	byColl  map[string][]string          // collection name -> sorted index names
	stats   map[string]*stats.Collection // collection name -> statistics snapshot
	shards  map[string]ShardMeta         // collection name -> shard topology

	// tails maps a collection name to the slice its last Append built,
	// published clipped (tail[:n:n]) so no reader can reach the spare
	// capacity the next Append writes into. Clones start without tails,
	// so two catalogs never write into one array.
	tails map[string][]value.Value

	// epoch counts catalog mutations. The server folds it into plan
	// fingerprints so plans compiled before an index existed (or before
	// its collection or statistics changed) cannot be replayed after.
	epoch atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		named:   make(map[string]value.Value),
		indexes: make(map[string]*index.Index),
		byColl:  make(map[string][]string),
		stats:   make(map[string]*stats.Collection),
		shards:  make(map[string]ShardMeta),
		tails:   make(map[string][]value.Value),
	}
}

// Clone returns a catalog holding c's bindings, statistics and indexes as
// they are now; afterwards the two change independently. Values, profiles
// and indexes are immutable snapshots, so only map entries are copied —
// a per-query scratch catalog costs its collection count, not their
// rows. Shard topology is not carried over: a clone holds whatever is
// registered on it whole.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Catalog{
		named:   maps.Clone(c.named),
		indexes: maps.Clone(c.indexes),
		byColl:  make(map[string][]string, len(c.byColl)),
		stats:   maps.Clone(c.stats),
		shards:  make(map[string]ShardMeta),
		tails:   make(map[string][]value.Value),
	}
	for coll, names := range c.byColl {
		out.byColl[coll] = slices.Clone(names)
	}
	out.epoch.Store(c.epoch.Load())
	return out
}

// Register binds name (which may be dotted, e.g. "hr.emp") to v,
// replacing any existing binding. A nil value panics: the data plane is
// nil-free.
//
// Indexes declared over name are rebuilt against the new value so they
// can never serve positions from a stale snapshot. If v is not a
// collection, or a rebuild fails, the affected indexes are dropped and
// the first rebuild error is returned — the binding itself always takes
// effect, and queries fall back to scans, so results stay correct.
//
// lockorder: Catalog.mu before value.shapeMu. Profiling and indexing key
// tuples, and the first keying of a shape takes shapeMu to count its name
// order against the shape tree's bound; nothing is called under shapeMu.
func (c *Catalog) Register(name string, v value.Value) error {
	if v == nil {
		panic("catalog: nil value for " + name)
	}
	if name == "" {
		return fmt.Errorf("catalog: empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.named[name] = v
	delete(c.tails, name)
	c.epoch.Add(1)
	// Statistics are advisory: a failed build (resource budget, injected
	// fault) drops them and planning falls back to heuristics, never
	// failing the registration itself.
	if st, err := stats.Build(v, nil); err == nil {
		c.stats[name] = st
	} else {
		delete(c.stats, name)
	}
	var firstErr error
	for _, iname := range append([]string(nil), c.byColl[name]...) {
		ix := c.indexes[iname]
		nx, err := index.Build(ix.Spec(), v, nil)
		if err != nil {
			c.dropIndexLocked(iname)
			if firstErr == nil {
				firstErr = fmt.Errorf("catalog: rebuilding index %s: %w", iname, err)
			}
			continue
		}
		c.indexes[iname] = nx
	}
	return firstErr
}

// Append adds elems to the collection bound to name (preserving its
// array/bag kind) and extends its indexes incrementally instead of
// rebuilding them. While the binding still is the catalog's own tail,
// the elements land in its spare capacity, so a run of appends copies
// the collection only when the tail regrows. An index whose extension
// fails is dropped and the first error returned; the appended value
// always takes effect.
//
// lockorder: Catalog.mu before value.shapeMu, as in Register.
func (c *Catalog) Append(name string, elems []value.Value, gov *eval.Governor) error {
	if len(elems) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.named[name]
	if !ok {
		return fmt.Errorf("catalog: append to unknown name %q", name)
	}
	old, ok := value.Elements(cur)
	if !ok {
		return fmt.Errorf("catalog: append to %q: %v is not a collection", name, cur.Kind())
	}
	tail := c.tails[name]
	if len(old) == 0 || len(tail) != len(old) || &tail[0] != &old[0] {
		tail = slices.Clip(old) // not ours: the append copies
	}
	tail = append(tail, elems...)
	c.tails[name] = tail
	nv := value.Value(value.Bag(slices.Clip(tail)))
	if cur.Kind() == value.KindArray {
		nv = value.Array(slices.Clip(tail))
	}
	c.named[name] = nv
	c.epoch.Add(1)
	// Extend statistics copy-on-write. The extend charges gov at the
	// "stats-build" site; on failure the statistics are dropped
	// (planning falls back to heuristics) and the append itself still
	// takes effect.
	if st, ok := c.stats[name]; ok {
		if nst, err := st.Extended(elems, gov); err == nil {
			c.stats[name] = nst
		} else {
			delete(c.stats, name)
		}
	}
	var firstErr error
	for _, iname := range append([]string(nil), c.byColl[name]...) {
		nx, err := c.indexes[iname].Extended(nv, elems, gov)
		if err != nil {
			c.dropIndexLocked(iname)
			if firstErr == nil {
				firstErr = fmt.Errorf("catalog: extending index %s: %w", iname, err)
			}
			continue
		}
		c.indexes[iname] = nx
	}
	return firstErr
}

// Drop removes a named value and any indexes over it; dropping an
// unknown name is a no-op.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.named, name)
	delete(c.tails, name)
	delete(c.stats, name)
	delete(c.shards, name)
	for _, iname := range append([]string(nil), c.byColl[name]...) {
		c.dropIndexLocked(iname)
	}
	c.epoch.Add(1)
}

// StatsFor returns the current statistics snapshot for a registered
// collection, or nil when none exist (stats build failed, or the name
// is unknown). Snapshots are immutable; the caller may hold one across
// the lock. It implements the planner's stats source.
func (c *Catalog) StatsFor(name string) *stats.Collection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats[name]
}

// LookupValue implements eval.NameSource.
func (c *Catalog) LookupValue(name string) (value.Value, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.named[name]
	return v, ok
}

// HasName reports whether name is registered; the resolver uses it to
// match dotted identifier chains.
func (c *Catalog) HasName(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.named[name]
	return ok
}

// Names returns all registered names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.named))
	for n := range c.named {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the catalog mutation counter.
func (c *Catalog) Epoch() int64 { return c.epoch.Load() }

// SetShardMeta records the shard topology of a distributed collection
// and bumps the epoch, invalidating cached plans that predate the
// distribution. Shards < 1 is rejected.
func (c *Catalog) SetShardMeta(name string, m ShardMeta) error {
	if name == "" {
		return fmt.Errorf("catalog: empty name")
	}
	if m.Shards < 1 {
		return fmt.Errorf("catalog: shard meta for %q: %d shards", name, m.Shards)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards[name] = m
	c.epoch.Add(1)
	return nil
}

// ShardMetaFor reports the shard topology recorded for name.
func (c *Catalog) ShardMetaFor(name string) (ShardMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.shards[name]
	return m, ok
}

// ShardMetas returns all recorded shard topologies, keyed by collection
// name, sorted iteration being the caller's concern.
func (c *Catalog) ShardMetas() map[string]ShardMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]ShardMeta, len(c.shards))
	for k, v := range c.shards {
		out[k] = v
	}
	return out
}

// CreateIndex builds spec over its (already registered) collection and
// installs it. gov, when non-nil, bounds the build's memory.
//
// lockorder: Catalog.mu before value.shapeMu, as in Register.
func (c *Catalog) CreateIndex(spec index.Spec, gov *eval.Governor) error {
	if spec.Name == "" {
		return fmt.Errorf("catalog: empty index name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.indexes[spec.Name]; dup {
		return fmt.Errorf("catalog: index %q already exists", spec.Name)
	}
	src, ok := c.named[spec.Collection]
	if !ok {
		return fmt.Errorf("catalog: index %q: unknown collection %q", spec.Name, spec.Collection)
	}
	ix, err := index.Build(spec, src, gov)
	if err != nil {
		return err
	}
	c.indexes[spec.Name] = ix
	names := append(c.byColl[spec.Collection], spec.Name)
	sort.Strings(names)
	c.byColl[spec.Collection] = names
	c.epoch.Add(1)
	return nil
}

// DropIndex removes an index by name, reporting whether it existed.
func (c *Catalog) DropIndex(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; !ok {
		return false
	}
	c.dropIndexLocked(name)
	c.epoch.Add(1)
	return true
}

// dropIndexLocked removes an index under the write lock.
func (c *Catalog) dropIndexLocked(name string) {
	ix, ok := c.indexes[name]
	if !ok {
		return
	}
	delete(c.indexes, name)
	coll := ix.Spec().Collection
	names := c.byColl[coll]
	for i, n := range names {
		if n == name {
			c.byColl[coll] = append(names[:i:i], names[i+1:]...)
			break
		}
	}
	if len(c.byColl[coll]) == 0 {
		delete(c.byColl, coll)
	}
}

// Indexes returns all installed indexes, sorted by name.
func (c *Catalog) Indexes() []*index.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*index.Index, len(names))
	for i, n := range names {
		out[i] = c.indexes[n]
	}
	return out
}

// LookupIndex resolves an index by name; the plan runtime uses it (via
// an interface assertion on eval.NameSource) to bind a planned index
// choice to the current snapshot at execution time.
func (c *Catalog) LookupIndex(name string) (*index.Index, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[name]
	return ix, ok
}

// IndexFor reports an index over collection keyed by path, preferring
// the cheapest kind that supports the probe: hash for pure equality,
// ordered otherwise. Ties break to the lexicographically smallest name
// so planning is deterministic.
func (c *Catalog) IndexFor(collection string, path []string, needOrdered bool) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	best := ""
	bestOrdered := false
	for _, name := range c.byColl[collection] {
		ix := c.indexes[name]
		sp := ix.Spec()
		if !slices.Equal(sp.Path, path) {
			continue
		}
		ordered := sp.Kind == index.Ordered
		if needOrdered && !ordered {
			continue
		}
		switch {
		case best == "":
		case !needOrdered && bestOrdered && !ordered:
			// A hash index beats an ordered one for equality probes.
		default:
			continue
		}
		best, bestOrdered = name, ordered
	}
	return best, best != ""
}
