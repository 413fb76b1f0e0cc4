// Package stats collects per-collection statistics for cost-based
// planning over schema-optional data.
//
// SQL++ has no fixed columns, so statistics are kept per *path*: every
// dotted tuple path that actually occurs in the data gets a presence
// count, a NULL count (MISSING is derived: rows - present - null, which
// stays exact even for paths first seen late in the scan), per-value-
// class row counts with exact min/max, and a bottom-k distinct sketch
// that doubles as an NDV estimator and a coordinated sample of distinct
// values with exact per-value row counts. Equi-depth histograms are
// derived from that sample on demand.
//
// A Collection is immutable once built. Append extends it
// copy-on-write (Extended), exactly like secondary indexes, so readers
// of the old snapshot are never disturbed. Build order never changes a
// Collection's observable state: counters are sums, min/max are
// order-free, and the sketch keeps the k smallest hashes of the
// canonical key encodings — a set, not a sequence. Merge unions two
// collections' statistics under the same guarantee.
//
// Documented estimation bounds:
//
//   - While a path has at most sketchK distinct values, NDV, equality
//     fractions, and range fractions are exact (the sketch holds every
//     distinct value with its exact row count).
//   - Beyond sketchK distinct values the sketch is a uniform sample of
//     the distinct values; NDV uses the standard KMV estimator
//     (k-1)/max-normalized-hash, equality against an unsampled value
//     falls back to the uniform 1/NDV assumption, and range fractions
//     are row-weighted over the sample.
//   - At most maxPaths paths are tracked (the lexicographically
//     smallest, so the tracked set is ingest-order-independent) to
//     depth maxDepth; untracked paths estimate as unknown and the
//     planner stays on its heuristics for them.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

const (
	// sketchK is the bottom-k distinct-sketch size per path.
	sketchK = 256
	// maxPaths bounds the tracked paths per collection.
	maxPaths = 64
	// maxDepth bounds the tuple-nesting depth of tracked paths.
	maxDepth = 4
	// histBuckets bounds the derived equi-depth histogram per class.
	histBuckets = 16
)

// The value classes statistics are kept per. They mirror the index
// package's comparison classes, with int and float folded into one
// numeric class (they compare and join across).
const (
	classBool = iota
	classNumber
	classString
	classBytes
	classArray
	classTuple
	classOther
	nClasses
)

var className = [nClasses]string{"bool", "number", "string", "bytes", "array", "tuple", "other"}

// classOf maps a present value to its class; absent values (MISSING,
// NULL) are counted separately and return -1.
func classOf(v value.Value) int {
	switch v.Kind() {
	case value.KindMissing, value.KindNull:
		return -1
	case value.KindBool:
		return classBool
	case value.KindInt, value.KindFloat:
		return classNumber
	case value.KindString:
		return classString
	case value.KindBytes:
		return classBytes
	case value.KindArray:
		return classArray
	case value.KindTuple:
		return classTuple
	default:
		return classOther
	}
}

// entry is one sampled distinct value: its canonical key encoding, a
// representative value, and the exact number of rows carrying it. On the
// (hash-collision) chance two distinct keys share a hash, the smaller
// key is kept and the counts merge — deterministic, and flagged by the
// key check at estimate time.
type entry struct {
	key   string
	val   value.Value
	count int64
}

// sketch is a bottom-k distinct sketch over 64-bit FNV-1a hashes of
// canonical key encodings, held in ascending hash order: the admission
// threshold of a full sketch is the last entry and lookups are binary
// searches. Membership depends only on the hash value, never on arrival
// order, so permuted ingest builds an identical sketch.
type sketch struct {
	es        []hashed
	saturated bool // an eviction has happened: counts below are a sample
}

// hashed is one retained entry under its hash.
type hashed struct {
	h uint64
	entry
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashKey[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	// FNV-1a's last step is a single multiply, so keys differing only in
	// trailing bytes (consecutive integers share their canonical-key
	// prefix) hash near-monotonically — a bottom-k sketch over raw FNV
	// would retain the smallest values instead of a uniform sample. The
	// murmur3 finalizer restores avalanche on the low-order differences.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newSketch() *sketch { return &sketch{es: make([]hashed, 0, 8)} }

// clone copies the sketch for copy-on-write extension.
func (s *sketch) clone() *sketch {
	return &sketch{es: slices.Clone(s.es), saturated: s.saturated}
}

// find returns the position of hash h, or where it would be inserted.
func (s *sketch) find(h uint64) (int, bool) {
	return slices.BinarySearchFunc(s.es, h, func(e hashed, h uint64) int { return cmp.Compare(e.h, h) })
}

// fold counts another sighting of e's hash into it: on a collision the
// smaller key is kept, and for the same key the tie-break picks which of
// the grouping-equal values represents it. A []byte key becomes a string
// only if it is kept.
func fold[K string | []byte](e *entry, key K, v value.Value, count int64) {
	switch {
	case string(key) < e.key:
		e.key, e.val = string(key), v
	case string(key) == e.key:
		e.val = keep(e.val, v)
	}
	e.count += count
}

// add folds one present value into the sketch, charging the governor for
// each newly retained sample value. key is v's canonical key in the
// caller's scratch buffer: most values hash to an entry already held or
// to nothing the sketch admits, so the key becomes a string only when an
// entry keeps it.
func (s *sketch) add(v value.Value, key []byte, gov *eval.Governor) error {
	if faultinject.Enabled {
		if err := faultinject.Fire(faultinject.StatsSketchAdd); err != nil {
			return err
		}
	}
	h := hashKey(key)
	full := len(s.es) >= sketchK
	if full && h > s.es[len(s.es)-1].h {
		// Full: only hashes below the largest retained one are admitted.
		s.saturated = true
		return nil
	}
	i, ok := s.find(h)
	if ok {
		fold(&s.es[i].entry, key, v, 1)
		return nil
	}
	if full {
		s.saturated = true
		s.es = s.es[:len(s.es)-1] // evict the largest to admit h
	}
	if gov != nil {
		if err := gov.ChargeValues("stats-build", 1, v); err != nil {
			return err
		}
	}
	s.es = slices.Insert(s.es, i, hashed{h, entry{key: string(key), val: v, count: 1}})
	return nil
}

// ndv estimates the number of distinct values seen.
func (s *sketch) ndv() (est float64, exact bool) {
	if !s.saturated {
		return float64(len(s.es)), true
	}
	maxH := s.es[len(s.es)-1].h
	if maxH == 0 {
		return float64(len(s.es)), false
	}
	norm := float64(maxH) / float64(1<<63) / 2 // maxH / 2^64
	return float64(len(s.es)-1) / norm, false
}

// sample returns the retained entries sorted by value order — the
// deterministic substrate for histograms and range estimates.
// governor:bounded by sketchK entries
func (s *sketch) sample() []entry {
	out := make([]entry, 0, len(s.es))
	for _, e := range s.es {
		out = append(out, e.entry)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := value.Compare(out[i].val, out[j].val); c != 0 {
			return c < 0
		}
		return out[i].key < out[j].key
	})
	return out
}

// merge unions another sketch into this one (receiver must be owned),
// summing counts for shared hashes and keeping the k smallest.
// governor:bounded by sketchK entries
func (s *sketch) merge(o *sketch) {
	a, b := s.es, o.es
	out := make([]hashed, 0, min(len(a)+len(b), sketchK))
	s.saturated = s.saturated || o.saturated
	for len(a) > 0 || len(b) > 0 {
		if len(out) == sketchK {
			s.saturated = true
			break
		}
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].h < b[0].h:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0].h < a[0].h:
			out, b = append(out, b[0]), b[1:]
		default:
			e := a[0]
			fold(&e.entry, b[0].key, b[0].val, b[0].count)
			out, a, b = append(out, e), a[1:], b[1:]
		}
	}
	s.es = out
}

// keep returns which of two Compare-equal values statistics retain.
// Grouping-equal values can still render differently (Int 0 and Float
// 0.0, tuples with permuted attributes), and which one arrives first
// depends on ingest order, so every tie goes by one fixed rule: the lower
// Kind, then the smaller bit pattern or rendering (collections that are
// DeepEqual are taken to render alike, which spares the common tie a
// rendering).
func keep(a, b value.Value) value.Value {
	ka, kb := a.Kind(), b.Kind()
	switch {
	case ka != kb:
		if kb < ka {
			return b
		}
	case ka == value.KindFloat:
		// -0.0 and 0.0 compare equal but render apart.
		if math.Float64bits(float64(b.(value.Float))) < math.Float64bits(float64(a.(value.Float))) {
			return b
		}
	case ka == value.KindArray || ka == value.KindTuple || ka == value.KindBag:
		if !value.DeepEqual(a, b) && b.String() < a.String() {
			return b
		}
	}
	return a
}

// classStats is the exact per-class breakdown for one path.
type classStats struct {
	rows     int64
	min, max value.Value // nil until the class is seen
}

func (c *classStats) observe(v value.Value) {
	c.rows++
	c.min = extreme(c.min, v, -1)
	c.max = extreme(c.max, v, 1)
}

// extreme returns whichever of cur and v lies further in direction dir
// (-1 for the minimum, 1 for the maximum); nil cur means none yet.
func extreme(cur, v value.Value, dir int) value.Value {
	if cur == nil {
		return v
	}
	switch c := value.Compare(v, cur); {
	case c*dir > 0:
		return v
	case c == 0:
		return keep(cur, v)
	}
	return cur
}

// pathStats is everything tracked for one dotted path.
type pathStats struct {
	present int64 // rows where the path yields a present value
	null    int64 // rows where the path yields NULL
	classes [nClasses]classStats
	sk      *sketch
}

func (p *pathStats) clone() *pathStats {
	n := *p
	n.sk = p.sk.clone()
	return &n
}

// Collection is an immutable statistics snapshot over one registered
// collection.
type Collection struct {
	rows      int64
	paths     map[string]*pathStats
	truncated bool // more than maxPaths distinct paths exist in the data

	// owned marks paths this snapshot may mutate in place during an
	// incremental extend; everything else is shared with the snapshot it
	// was extended from.
	owned map[string]bool
	// keyBuf is the scratch sketch keys are encoded into while rows are
	// being added; like owned it is dropped from a finished snapshot.
	keyBuf []byte
}

// Build scans src (a collection, or a single value treated as one row)
// and returns its statistics, charging retained sample values to gov.
func Build(src value.Value, gov *eval.Governor) (*Collection, error) {
	elems, ok := value.Elements(src)
	if !ok {
		elems = []value.Value{src}
	}
	c := &Collection{paths: make(map[string]*pathStats), owned: make(map[string]bool)}
	for _, el := range elems {
		if err := c.addRow(el, gov); err != nil {
			return nil, err
		}
	}
	c.owned, c.keyBuf = nil, nil
	return c, nil
}

// Extended returns a new snapshot covering the old rows plus elems. The
// receiver is never mutated: touched paths are cloned on first touch,
// untouched ones are shared.
func (c *Collection) Extended(elems []value.Value, gov *eval.Governor) (*Collection, error) {
	n := &Collection{
		rows:      c.rows,
		paths:     make(map[string]*pathStats, len(c.paths)),
		truncated: c.truncated,
		owned:     make(map[string]bool),
	}
	for k, v := range c.paths {
		n.paths[k] = v
	}
	for _, el := range elems {
		if err := n.addRow(el, gov); err != nil {
			return nil, err
		}
	}
	n.owned, n.keyBuf = nil, nil
	return n, nil
}

// addRow folds one row into the (mutable, owned) collection under
// construction.
func (c *Collection) addRow(row value.Value, gov *eval.Governor) error {
	c.rows++
	if t, ok := row.(*value.Tuple); ok {
		return c.walk(t, "", 1, gov)
	}
	return nil
}

// walk records every dotted path of t under prefix, descending nested
// tuples to maxDepth.
// governor:charged-at sketch.add per retained sample value; path count bounded by maxPaths
func (c *Collection) walk(t *value.Tuple, prefix string, depth int, gov *eval.Governor) error {
	vals := t.Values()
	for i, path := range t.Names() {
		v := vals[i]
		if prefix != "" {
			path = prefix + "." + path
		}
		ps := c.admit(path)
		if ps != nil {
			switch v.Kind() {
			case value.KindMissing:
				// An explicit MISSING field is indistinguishable from an
				// absent one; the derived missing count covers it.
			case value.KindNull:
				ps.null++
			default:
				ps.present++
				ps.classes[classOf(v)].observe(v)
				c.keyBuf = value.AppendKey(c.keyBuf[:0], v)
				if err := ps.sk.add(v, c.keyBuf, gov); err != nil {
					return err
				}
			}
		}
		if sub, ok := v.(*value.Tuple); ok && depth < maxDepth {
			if err := c.walk(sub, path, depth+1, gov); err != nil {
				return err
			}
		}
	}
	return nil
}

// admit returns the mutable pathStats for path, creating or
// copy-on-write-cloning it as needed. When the path budget is full, the
// lexicographically largest tracked path is evicted for a smaller
// newcomer — so the final tracked set depends only on the data, never
// on ingest order — and larger newcomers are rejected.
func (c *Collection) admit(path string) *pathStats {
	if ps, ok := c.paths[path]; ok {
		if c.owned[path] {
			return ps
		}
		cl := ps.clone()
		c.paths[path] = cl
		c.owned[path] = true
		return cl
	}
	if len(c.paths) >= maxPaths {
		maxPath := ""
		for p := range c.paths {
			if p > maxPath {
				maxPath = p
			}
		}
		c.truncated = true
		if path >= maxPath {
			return nil
		}
		delete(c.paths, maxPath)
		delete(c.owned, maxPath)
	}
	ps := &pathStats{sk: newSketch()}
	c.paths[path] = ps
	c.owned[path] = true
	return ps
}

// Merge returns the union of two statistics snapshots, as if one
// collection held both row sets. Merge(a, b) and Merge(b, a) are
// observably identical within the documented sketch bounds.
// governor:bounded by maxPaths tracked paths
func Merge(a, b *Collection) *Collection {
	out := &Collection{
		rows:      a.rows + b.rows,
		paths:     make(map[string]*pathStats, len(a.paths)),
		truncated: a.truncated || b.truncated,
	}
	for p, ps := range a.paths {
		out.paths[p] = ps.clone()
	}
	for p, bp := range b.paths {
		ap, ok := out.paths[p]
		if !ok {
			out.paths[p] = bp.clone()
			continue
		}
		ap.present += bp.present
		ap.null += bp.null
		for i := range ap.classes {
			bc := bp.classes[i]
			ap.classes[i].rows += bc.rows
			if bc.min != nil {
				ap.classes[i].min = extreme(ap.classes[i].min, bc.min, -1)
				ap.classes[i].max = extreme(ap.classes[i].max, bc.max, 1)
			}
		}
		ap.sk.merge(bp.sk)
	}
	if len(out.paths) > maxPaths {
		names := make([]string, 0, len(out.paths))
		for p := range out.paths {
			names = append(names, p)
		}
		sort.Strings(names)
		for _, p := range names[maxPaths:] {
			delete(out.paths, p)
		}
		out.truncated = true
	}
	return out
}

// Rows reports the collection cardinality.
func (c *Collection) Rows() int64 {
	if c == nil {
		return 0
	}
	return c.rows
}

// lookup resolves a dotted path.
// governor:bounded by the path's segments, which the query names
func (c *Collection) lookup(path []string) *pathStats {
	if c == nil || len(path) == 0 {
		return nil
	}
	// The dotted key is assembled on the stack, so an estimate allocates
	// nothing for the paths queries name.
	var buf [64]byte
	key := append(buf[:0], path[0]...)
	for _, p := range path[1:] {
		key = append(append(key, '.'), p...)
	}
	return c.paths[string(key)]
}

// NDV estimates the number of distinct present values at path. ok is
// false when the path is untracked (no estimate, planner stays on
// heuristics).
func (c *Collection) NDV(path []string) (est float64, ok bool) {
	ps := c.lookup(path)
	if ps == nil {
		return 0, false
	}
	est, _ = ps.sk.ndv()
	if est < 1 {
		est = 1
	}
	return est, true
}

// EqFraction estimates the fraction of rows whose path equals v. Exact
// for sampled values (and for every value while the path has at most
// sketchK distinct values); 1/NDV uniform fallback beyond that.
// Equality against MISSING or NULL is never TRUE, so those estimate 0.
func (c *Collection) EqFraction(path []string, v value.Value) (frac float64, ok bool) {
	ps := c.lookup(path)
	if ps == nil || c.rows == 0 {
		return 0, false
	}
	if value.IsAbsent(v) {
		return 0, true
	}
	key := value.Key(v)
	if i, hit := ps.sk.find(hashKey(key)); hit && ps.sk.es[i].key == key {
		return float64(ps.sk.es[i].count) / float64(c.rows), true
	}
	if !ps.sk.saturated {
		return 0, true // every distinct value is sampled; v never occurs
	}
	ndv, _ := ps.sk.ndv()
	return float64(ps.present) / float64(c.rows) / ndv, true
}

// RangeFraction estimates the fraction of rows whose path falls in
// [lo, hi] (nil bounds are unbounded; inclusivity per flag), row-
// weighted over the distinct-value sample. Only the scalar class of the
// bounds participates — cross-class comparisons are never TRUE.
// governor:bounded by sketchK sample entries
func (c *Collection) RangeFraction(path []string, lo, hi value.Value, loIncl, hiIncl bool) (frac float64, ok bool) {
	ps := c.lookup(path)
	if ps == nil || c.rows == 0 {
		return 0, false
	}
	cls := -1
	if lo != nil {
		cls = classOf(lo)
	} else if hi != nil {
		cls = classOf(hi)
	}
	if cls < 0 || (lo != nil && hi != nil && classOf(hi) != cls) {
		return 0, false
	}
	// The sums do not depend on order, so the sketch is read in place,
	// not through its sorted sample.
	var total, matching int64
	for _, e := range ps.sk.es {
		if classOf(e.val) != cls {
			continue
		}
		total += e.count
		if lo != nil {
			if cmp := value.Compare(e.val, lo); cmp < 0 || (cmp == 0 && !loIncl) {
				continue
			}
		}
		if hi != nil {
			if cmp := value.Compare(e.val, hi); cmp > 0 || (cmp == 0 && !hiIncl) {
				continue
			}
		}
		matching += e.count
	}
	if total == 0 {
		return 0, true
	}
	classRows := ps.classes[cls].rows
	return float64(matching) / float64(total) * float64(classRows) / float64(c.rows), true
}

// Summary is the JSON-ready rendering of a Collection, used by the
// stats endpoint and the CLIs.
type Summary struct {
	Rows      int64         `json:"rows"`
	Truncated bool          `json:"truncated,omitempty"`
	Paths     []PathSummary `json:"paths"`
}

// PathSummary summarizes one tracked path.
type PathSummary struct {
	Path     string         `json:"path"`
	Present  int64          `json:"present"`
	Null     int64          `json:"null"`
	Missing  int64          `json:"missing"`
	NDV      float64        `json:"ndv"`
	NDVExact bool           `json:"ndv_exact"`
	Classes  []ClassSummary `json:"classes,omitempty"`
}

// ClassSummary summarizes one value class at a path.
type ClassSummary struct {
	Class     string       `json:"class"`
	Rows      int64        `json:"rows"`
	Min       string       `json:"min"`
	Max       string       `json:"max"`
	Histogram []HistBucket `json:"histogram,omitempty"`
}

// HistBucket is one equi-depth bucket derived from the distinct-value
// sample: sampled rows and distinct values up to (and including) the
// bound.
type HistBucket struct {
	UpperBound string `json:"upper_bound"`
	Rows       int64  `json:"rows"`
	Distinct   int64  `json:"distinct"`
}

// Summarize renders the collection deterministically (paths and buckets
// sorted).
// governor:bounded by maxPaths paths and sketchK sample entries
func (c *Collection) Summarize() Summary {
	if c == nil {
		return Summary{}
	}
	out := Summary{Rows: c.rows, Truncated: c.truncated}
	names := make([]string, 0, len(c.paths))
	for p := range c.paths {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		ps := c.paths[p]
		ndv, exact := ps.sk.ndv()
		sum := PathSummary{
			Path:     p,
			Present:  ps.present,
			Null:     ps.null,
			Missing:  c.rows - ps.present - ps.null,
			NDV:      ndv,
			NDVExact: exact,
		}
		sample := ps.sk.sample()
		for cls := 0; cls < nClasses; cls++ {
			cs := ps.classes[cls]
			if cs.rows == 0 {
				continue
			}
			csum := ClassSummary{
				Class: className[cls],
				Rows:  cs.rows,
				Min:   cs.min.String(),
				Max:   cs.max.String(),
			}
			csum.Histogram = equiDepth(sample, cls)
			sum.Classes = append(sum.Classes, csum)
		}
		out.Paths = append(out.Paths, sum)
	}
	return out
}

// equiDepth folds the class's slice of the sorted sample into at most
// histBuckets buckets of (approximately) equal sampled row weight.
// governor:bounded by sketchK sample entries
func equiDepth(sample []entry, cls int) []HistBucket {
	var in []entry
	var total int64
	for _, e := range sample {
		if classOf(e.val) == cls {
			in = append(in, e)
			total += e.count
		}
	}
	if len(in) == 0 {
		return nil
	}
	per := total/histBuckets + 1
	var out []HistBucket
	var cur HistBucket
	for _, e := range in {
		cur.Rows += e.count
		cur.Distinct++
		cur.UpperBound = e.val.String()
		if cur.Rows >= per && len(out) < histBuckets-1 {
			out = append(out, cur)
			cur = HistBucket{}
		}
	}
	if cur.Distinct > 0 {
		out = append(out, cur)
	}
	return out
}
