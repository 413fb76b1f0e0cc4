package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sqlpp"
)

// Plan is one cached compilation: a plain prepared query or a
// parameterized one, depending on whether the request supplied params.
// Exactly one of the two fields is set, except in the cache's literal
// template entries, which hold neither. Both kinds are immutable after
// compilation and safe for concurrent execution, so a cache hit can be
// executed without copying.
type Plan struct {
	Prepared *sqlpp.Prepared
	Params   *sqlpp.PreparedParams

	// tmpl is the state of a template key (Key.Template).
	tmpl *templateState
}

// templateState is where a literal template stands: seen once (neither
// field set), admitted, or literal-only — its texts always prepare
// cold. Each state is immutable; a transition Puts a new one.
type templateState struct {
	admitted    *sqlpp.Template
	literalOnly bool
}

// PlanCache is a concurrency-safe LRU cache of compiled plans with two
// levels of key. The first is the query text's Key: a hit there skips
// lexing, parsing, rewriting to Core, name resolution and planning — the
// entire compile phase — which is the dominant per-request cost for the
// small repeated queries a programmatic API serves. The second,
// consulted on a first-level miss of a plain request, is the text's
// literal template (Key.Template): a hit there skips the same phases
// for a text that differs from an earlier one only in its numeric
// literals, at the cost of one lexer pass for the key and the
// re-evaluation of the template's cost guards (see Server.plan).
//
// The cache must be purged whenever the catalog's name set changes:
// compiled plans bake in name resolution (dotted identifiers
// disambiguate against the registered names), so registering or
// dropping a collection can change what a query text means.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	index map[Key]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key  Key
	plan Plan
}

// NewPlanCache returns a cache holding up to capacity plans. A
// capacity <= 0 disables caching: every Get misses and Put is a no-op.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		index: make(map[Key]*list.Element),
	}
}

// Key is a plan cache key: everything a compiled plan is a function
// of. It holds the engine options whole — a Prepared bakes in its
// engine, so compat, typing mode, optimizer, parallelism, vet and every
// budget distinguish plans — and the catalog epoch, because index DDL
// changes what the optimizer may choose without changing the text.
// Explain keeps instrumented and plain requests' hit/miss accounting
// apart although their plans are interchangeable. A template key
// (Template set) holds the literal template text sqlpp.TemplateText
// gives a query, never the query's own.
type Key struct {
	Options sqlpp.Options
	Epoch   int64
	// Params holds the declared parameter names, sorted and NUL-joined.
	Params   string
	Explain  bool
	Template bool
	Text     string
}

// Get returns the cached plan for key, marking it most recently used,
// and counts the lookup as a hit or a miss.
func (c *PlanCache) Get(key Key) (Plan, bool) {
	p, ok := c.peek(key)
	c.count(ok)
	return p, ok
}

// peek is Get without counting, for a lookup that is only one level of
// a request's.
func (c *PlanCache) peek(key Key) (Plan, bool) {
	if c.cap <= 0 {
		return Plan{}, false
	}
	// The plan is read under the lock: Put refreshes an entry in place.
	var p Plan
	c.mu.Lock()
	el, ok := c.index[key]
	if ok {
		c.ll.MoveToFront(el)
		p = el.Value.(*cacheEntry).plan
	}
	c.mu.Unlock()
	return p, ok
}

// count records one request's lookup outcome.
func (c *PlanCache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put inserts (or refreshes) a plan, evicting the least recently used
// entry when the cache is full.
func (c *PlanCache) Put(key Key, p Plan) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*cacheEntry).key)
	}
}

// Purge drops every cached plan; counters are preserved. Call it after
// any catalog mutation.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.index)
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits reports the lifetime hit count.
func (c *PlanCache) Hits() uint64 { return c.hits.Load() }

// Misses reports the lifetime miss count.
func (c *PlanCache) Misses() uint64 { return c.misses.Load() }
