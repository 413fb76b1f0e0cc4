package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/value"
)

// mustValue parses object notation or fails the test.
func mustValue(t *testing.T, src string) value.Value {
	t.Helper()
	v, err := sqlpp.ParseValue(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return v
}

func TestPartitionRangePreservesOrderAndKind(t *testing.T) {
	v := mustValue(t, "[1, 2, 3, 4, 5, 6, 7]")
	parts, err := Partition(v, Spec{Name: "xs"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	var back []string
	for _, p := range parts {
		if p.Kind() != value.KindArray {
			t.Fatalf("part kind = %v, want array", p.Kind())
		}
		elems, _ := value.Elements(p)
		for _, e := range elems {
			back = append(back, e.String())
		}
	}
	if got := strings.Join(back, ","); got != "1,2,3,4,5,6,7" {
		t.Fatalf("reassembled = %s", got)
	}
}

func TestPartitionHashColocatesEqualKeys(t *testing.T) {
	v := mustValue(t, "{{ {'k': 'a', 'n': 1}, {'k': 'b', 'n': 2}, {'k': 'a', 'n': 3}, {'n': 4}, {'n': 5} }}")
	parts, err := Partition(v, Spec{Name: "xs", Kind: Hash, Key: "k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]int{} // key rendering -> shard index
	total := 0
	for i, p := range parts {
		if p.Kind() != value.KindBag {
			t.Fatalf("part kind = %v, want bag", p.Kind())
		}
		elems, _ := value.Elements(p)
		total += len(elems)
		for _, e := range elems {
			tp := e.(*value.Tuple)
			key := "missing"
			if kv, ok := tp.Get("k"); ok {
				key = kv.String()
			}
			if prev, seen := at[key]; seen && prev != i {
				t.Fatalf("key %s split across shards %d and %d", key, prev, i)
			}
			at[key] = i
		}
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
}

func TestPartitionRejectsNonCollection(t *testing.T) {
	if _, err := Partition(value.Int(3), Spec{Name: "xs"}, 2); err == nil {
		t.Fatal("expected error for scalar")
	}
}

// identityCatalog is the targeted-identity test fixture: a heterogeneous
// orders collection plus an unsharded dims table.
const ordersSrc = `[
  {'g': 'a', 'v': 3, 'w': 1.5},
  {'g': 'b', 'v': 1},
  {'g': 'a', 'v': 7, 'w': 2.5},
  {'g': 'c', 'v': 2, 'extra': [1,2]},
  {'g': 'b', 'v': 9},
  {'g': 'a', 'v': 4},
  {'v': 100},
  {'g': 'c', 'v': 5},
  {'g': 'missing-v'},
  {'g': 'b', 'v': 2},
  {'g': 'a', 'v': 1},
  {'g': 'c', 'v': 8}
]`

const dimsSrc = `[
  {'k': 'a', 'label': 'alpha'},
  {'k': 'b', 'label': 'beta'},
  {'k': 'c', 'label': 'gamma'}
]`

// newIdentityPair builds a single-node engine and an equivalent sharded
// coordinator (range partitioning, n shards).
func newIdentityPair(t *testing.T, n int, opts *sqlpp.Options) (*sqlpp.Engine, *Coordinator) {
	t.Helper()
	single := sqlpp.New(opts)
	if err := single.Register("orders", mustValue(t, ordersSrc)); err != nil {
		t.Fatal(err)
	}
	if err := single.Register("dims", mustValue(t, dimsSrc)); err != nil {
		t.Fatal(err)
	}
	co := NewLocalCluster(n, opts, Policy{})
	if err := co.Distribute("orders", mustValue(t, ordersSrc), Spec{}); err != nil {
		t.Fatal(err)
	}
	if err := co.Broadcast("dims", mustValue(t, dimsSrc)); err != nil {
		t.Fatal(err)
	}
	return single, co
}

// identityQueries pairs query text with the scatter class it should
// classify to — and every one of them must be byte-identical to
// single-node execution under range partitioning.
var identityQueries = []struct {
	query string
	class string
}{
	{"SELECT x.g AS g, COUNT(*) AS c, SUM(x.v) AS s FROM orders AS x GROUP BY x.g AS g", "group"},
	{"SELECT x.g AS g, AVG(x.v) AS a, MIN(x.v) AS mn, MAX(x.v) AS mx FROM orders AS x GROUP BY x.g AS g", "group"},
	{"SELECT g, SUM(x.v) AS s FROM orders AS x GROUP BY x.g AS g HAVING COUNT(*) > 2 ORDER BY g LIMIT 2", "group"},
	{"SELECT x.g AS g, COUNT(*) AS c FROM orders AS x WHERE x.v > 1 GROUP BY x.g AS g ORDER BY c DESC, g", "group"},
	{"SELECT COUNT(*) AS c, SUM(x.v) AS s, AVG(x.v) AS a FROM orders AS x", "group"},
	{"SELECT MIN(x.v) AS mn, MAX(x.v) AS mx FROM orders AS x WHERE x.g = 'a'", "group"},
	{"SELECT x.g AS g, COUNT(*) AS c FROM orders AS x JOIN dims AS d ON x.g = d.k GROUP BY x.g AS g", "group"},
	{"SELECT VALUE x.v FROM orders AS x WHERE x.v > 1 ORDER BY x.v DESC LIMIT 4", "topk"},
	{"SELECT VALUE x.v FROM orders AS x ORDER BY x.v LIMIT 3 OFFSET 2", "topk"},
	{"SELECT x.g AS g, x.v AS v FROM orders AS x ORDER BY x.v DESC, x.g LIMIT 5", "topk"},
	{"SELECT VALUE x FROM orders AS x ORDER BY x.v", "topk"},
	{"SELECT VALUE x.v FROM orders AS x WHERE x.v >= 4", "concat"},
	{"SELECT x.g AS g FROM orders AS x WHERE x.v > 2 LIMIT 3", "concat"},
	{"SELECT DISTINCT x.g AS g FROM orders AS x", "concat"},
	{"SELECT VALUE {'g': x.g, 'd': (SELECT VALUE d.label FROM dims AS d WHERE d.k = x.g)} FROM orders AS x WHERE x.v > 6", "concat"},
	// Gather fallbacks: parameterized, multi-ref, aggregate-ineligible,
	// star, GROUP AS, nested correlated blocks over the sharded name.
	{"SELECT * FROM orders AS x WHERE x.v > 8", "gather"},
	{"SELECT x.g AS g, ARRAY_AGG(x.v) AS vs FROM orders AS x GROUP BY x.g AS g", "gather"},
	{"SELECT x.g AS g, COUNT(DISTINCT x.v) AS c FROM orders AS x GROUP BY x.g AS g", "gather"},
	{"SELECT x.g AS g, g2 AS members FROM orders AS x GROUP BY x.g AS g GROUP AS g2", "gather"},
	{"SELECT VALUE (SELECT VALUE SUM(y.v) FROM orders AS y WHERE y.g = x.g) FROM orders AS x WHERE x.v = 9", "gather"},
	// A correlated subquery in the sort key is fine for topk: the key is
	// computed per row while the row variable is in scope, and the merge
	// sorts on the stored key values.
	{"SELECT VALUE o FROM orders AS o ORDER BY (SELECT VALUE COUNT(*) FROM dims AS d WHERE d.k = o.g) DESC, o.v", "topk"},
	{"SELECT DISTINCT x.g AS g FROM orders AS x ORDER BY g", "gather"},
	// A PIVOT block builds one tuple: no partial merge applies.
	{"PIVOT x.v AT x.g FROM orders AS x WHERE x.v > 3", "gather"},
	{"PIVOT SUM(x.v) AT g FROM orders AS x GROUP BY x.g AS g", "gather"},
	// Local: no sharded reference at all.
	{"SELECT VALUE d.label FROM dims AS d ORDER BY d.k", "local"},
}

func TestScatterByteIdentity(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 5} {
		single, co := newIdentityPair(t, shards, nil)
		for _, tc := range identityQueries {
			want, werr := single.Query(tc.query)
			res, gerr := co.Exec(context.Background(), tc.query)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("shards=%d %q: single err=%v sharded err=%v", shards, tc.query, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if res.Class != tc.class {
				t.Errorf("shards=%d %q: class=%s want %s", shards, tc.query, res.Class, tc.class)
			}
			if got := res.Value.String(); got != want.String() {
				t.Errorf("shards=%d %q:\n got %s\nwant %s\nclass=%s notes=%v",
					shards, tc.query, got, want.String(), res.Class, res.Notes)
			}
			if len(res.MissingShards) != 0 {
				t.Errorf("%q: unexpected missing shards %v", tc.query, res.MissingShards)
			}
		}
	}
}

// TestScatterSumOverflowWidens: three shards whose partial SUMs each fit
// int64 while the total does not. The merge must return the same Float a
// single node does — neither side may wrap.
func TestScatterSumOverflowWidens(t *testing.T) {
	const third = math.MaxInt64/2 + 1
	rows := value.Array{}
	for i := 0; i < 3; i++ {
		rows = append(rows, value.NewTuple(
			value.Field{Name: "g", Value: value.String("a")},
			value.Field{Name: "v", Value: value.Int(third)}))
	}
	single := sqlpp.New(nil)
	if err := single.Register("big", rows); err != nil {
		t.Fatal(err)
	}
	co := NewLocalCluster(3, nil, Policy{})
	if err := co.Distribute("big", rows, Spec{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT x.g AS g, SUM(x.v) AS s, AVG(x.v) AS a FROM big AS x GROUP BY x.g AS g",
		"SELECT SUM(x.v) AS s FROM big AS x",
	} {
		want, err := single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != "group" {
			t.Errorf("%q: class %s, want group", q, res.Class)
		}
		if got := res.Value.String(); got != want.String() || !strings.Contains(got, "1.3835058055282164e+19") {
			t.Errorf("%q:\n sharded %s\n single  %s\n want SUM 1.3835058055282164e+19", q, got, want)
		}
	}
}

func TestScatterByteIdentityCompatAndStrict(t *testing.T) {
	for _, opts := range []*sqlpp.Options{
		{Compat: true},
		{StopOnError: true},
	} {
		single, co := newIdentityPair(t, 3, opts)
		for _, tc := range identityQueries {
			want, werr := single.Query(tc.query)
			res, gerr := co.Exec(context.Background(), tc.query)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("opts=%+v %q: single err=%v sharded err=%v", *opts, tc.query, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got := res.Value.String(); got != want.String() {
				t.Errorf("opts=%+v %q:\n got %s\nwant %s", *opts, tc.query, got, want.String())
			}
		}
	}
}

func TestScatterParamsGather(t *testing.T) {
	single, co := newIdentityPair(t, 3, nil)
	query := "SELECT VALUE x.v FROM orders AS x WHERE x.g = $g ORDER BY x.v"
	p, err := single.PrepareParams(query, "$g")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]value.Value{"$g": value.String("a")}
	want, err := p.Exec(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.ExecRequest(context.Background(), ExecRequest{Query: query, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "gather" {
		t.Fatalf("class = %s, want gather", res.Class)
	}
	if res.Value.String() != want.String() {
		t.Fatalf("got %s want %s", res.Value.String(), want.String())
	}
}

func TestExplainComposesScatterTree(t *testing.T) {
	_, co := newIdentityPair(t, 3, nil)
	res, err := co.ExecRequest(context.Background(), ExecRequest{
		Query:   "SELECT x.g AS g, COUNT(*) AS c FROM orders AS x GROUP BY x.g AS g",
		Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil || st.Op != "scatter-gather" {
		t.Fatalf("stats root = %+v", st)
	}
	if st.Counters["shards"] != 3 {
		t.Fatalf("shards counter = %d", st.Counters["shards"])
	}
	if len(st.Children) != 4 { // 3 shards + merge
		t.Fatalf("children = %d", len(st.Children))
	}
	last := st.Children[len(st.Children)-1]
	if last.Op != "merge" || len(last.Children) == 0 {
		t.Fatalf("merge child = %+v", last)
	}
	for _, sh := range st.Children[:3] {
		if sh.Op != "shard" || len(sh.Children) == 0 {
			t.Fatalf("shard child %+v missing local plan tree", sh)
		}
		if sh.Counters["attempts"] != 1 {
			t.Fatalf("shard %s attempts = %d", sh.Label, sh.Counters["attempts"])
		}
	}
}

// flakyExecutor fails the first fail attempts of each query with a
// transient error, then delegates to a local executor.
type flakyExecutor struct {
	*LocalExecutor
	mu    sync.Mutex
	fail  int
	calls int
	hint  time.Duration
	final bool
}

func (f *flakyExecutor) Exec(ctx context.Context, req Request) (*Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.fail {
		err := fmt.Errorf("induced failure %d", n)
		if f.final {
			return nil, err
		}
		if f.hint > 0 {
			return nil, TransientHint(err, f.hint)
		}
		return nil, Transient(err)
	}
	return f.LocalExecutor.Exec(ctx, req)
}

// newFlakyCluster builds a 2-shard coordinator whose first shard is
// wrapped by a flaky executor.
func newFlakyCluster(t *testing.T, fail int, final bool, p Policy) (*Coordinator, *flakyExecutor) {
	t.Helper()
	e0 := sqlpp.New(nil)
	e1 := sqlpp.New(nil)
	fl := &flakyExecutor{LocalExecutor: NewLocal("s0", e0), fail: fail, final: final}
	co := NewCoordinator(sqlpp.New(nil), p, fl, NewLocal("s1", e1))
	if err := co.Distribute("xs", mustValue(t, "[1,2,3,4,5,6]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	return co, fl
}

func TestRetriesRecoverTransientFailure(t *testing.T) {
	co, fl := newFlakyCluster(t, 2, false, Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond})
	res, err := co.Exec(context.Background(), "SELECT VALUE SUM(x) FROM xs AS x")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.String(); got != "{{21}}" {
		t.Fatalf("got %s", got)
	}
	if fl.calls != 3 {
		t.Fatalf("calls = %d, want 3", fl.calls)
	}
	tele := co.Telemetry()
	if tele[0].Retries != 2 {
		t.Fatalf("telemetry retries = %d", tele[0].Retries)
	}
}

func TestFailFastSurfacesTypedShardError(t *testing.T) {
	co, _ := newFlakyCluster(t, 99, false, Policy{MaxAttempts: 2, BaseBackoff: time.Microsecond})
	_, err := co.Exec(context.Background(), "SELECT VALUE SUM(x) FROM xs AS x")
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Shard != "s0" || se.Attempts != 2 {
		t.Fatalf("ShardError = %+v", se)
	}
}

func TestFinalErrorNotRetried(t *testing.T) {
	co, fl := newFlakyCluster(t, 99, true, Policy{MaxAttempts: 5, BaseBackoff: time.Microsecond})
	_, err := co.Exec(context.Background(), "SELECT VALUE SUM(x) FROM xs AS x")
	if err == nil {
		t.Fatal("expected error")
	}
	if fl.calls != 1 {
		t.Fatalf("calls = %d, want 1 (final errors must not retry)", fl.calls)
	}
}

func TestPartialPolicyAnnotatesMissingShards(t *testing.T) {
	mode := Partial
	co, _ := newFlakyCluster(t, 99, false, Policy{MaxAttempts: 2, BaseBackoff: time.Microsecond})
	res, err := co.ExecRequest(context.Background(), ExecRequest{
		Query:     "SELECT VALUE SUM(x) FROM xs AS x",
		OnFailure: &mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingShards) != 1 || res.MissingShards[0] != "s0" {
		t.Fatalf("missing = %v", res.MissingShards)
	}
	// Shard s1 holds the second range chunk [4,5,6]: the partial answer
	// aggregates what survived.
	if got := res.Value.String(); got != "{{15}}" {
		t.Fatalf("partial sum = %s", got)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "missing_shards: s0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes missing annotation: %v", res.Notes)
	}
}

func TestPartialPolicyAllShardsDownStillErrors(t *testing.T) {
	mode := Partial
	e0 := sqlpp.New(nil)
	e1 := sqlpp.New(nil)
	f0 := &flakyExecutor{LocalExecutor: NewLocal("s0", e0), fail: 99}
	f1 := &flakyExecutor{LocalExecutor: NewLocal("s1", e1), fail: 99}
	co := NewCoordinator(sqlpp.New(nil), Policy{MaxAttempts: 2, BaseBackoff: time.Microsecond}, f0, f1)
	if err := co.Distribute("xs", mustValue(t, "[1,2,3]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	_, err := co.ExecRequest(context.Background(), ExecRequest{
		Query:     "SELECT VALUE COUNT(*) FROM xs AS x",
		OnFailure: &mode,
	})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError when every shard failed", err)
	}
}

func TestRetryAfterHintRaisesBackoff(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	p = p.WithClock(time.Now, func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	})
	e0 := sqlpp.New(nil)
	fl := &flakyExecutor{LocalExecutor: NewLocal("s0", e0), fail: 1, hint: 700 * time.Millisecond}
	co := NewCoordinator(sqlpp.New(nil), p, fl)
	if err := co.Distribute("xs", mustValue(t, "[1,2]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Exec(context.Background(), "SELECT VALUE COUNT(*) FROM xs AS x"); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] < 700*time.Millisecond {
		t.Fatalf("slept = %v, want >= hint 700ms", slept)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	p := Policy{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
	}.WithClock(func() time.Time { return now }, func(ctx context.Context, d time.Duration) error { return nil })
	_ = clock
	b := &breaker{}
	pf := p.filled()
	if !b.allow(pf) {
		t.Fatal("closed breaker must allow")
	}
	b.onFailure(pf)
	if b.isOpen() {
		t.Fatal("one failure under threshold 2 must not open")
	}
	b.onFailure(pf)
	if !b.isOpen() {
		t.Fatal("threshold reached, breaker must open")
	}
	if b.allow(pf) {
		t.Fatal("open breaker must reject before cooldown")
	}
	now = now.Add(11 * time.Second)
	if !b.allow(pf) {
		t.Fatal("cooldown elapsed, breaker must admit a half-open probe")
	}
	if b.allow(pf) {
		t.Fatal("half-open admits exactly one probe")
	}
	b.onSuccess()
	if b.isOpen() || !b.allow(pf) {
		t.Fatal("probe success must close the breaker")
	}
	if b.openCount() != 1 {
		t.Fatalf("openCount = %d", b.openCount())
	}

	// A failed probe re-opens immediately.
	b.onFailure(pf)
	b.onFailure(pf)
	now = now.Add(11 * time.Second)
	if !b.allow(pf) {
		t.Fatal("expected probe admission")
	}
	b.onFailure(pf)
	if !b.isOpen() {
		t.Fatal("failed probe must re-open")
	}
	if b.openCount() != 3 {
		t.Fatalf("openCount = %d, want 3", b.openCount())
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}.filled()
	a := newJitterSource(42)
	b := newJitterSource(42)
	for retry := 1; retry <= 6; retry++ {
		da := a.backoff(p, retry, 0)
		db := b.backoff(p, retry, 0)
		if da != db {
			t.Fatalf("retry %d: %v != %v (same seed must match)", retry, da, db)
		}
		exp := p.BaseBackoff << (retry - 1)
		if exp > p.MaxBackoff || exp <= 0 {
			exp = p.MaxBackoff
		}
		if da < exp/2 || da > exp {
			t.Fatalf("retry %d: backoff %v outside [%v, %v]", retry, da, exp/2, exp)
		}
	}
}

func TestHedgingRacesDuplicateAttempt(t *testing.T) {
	// Shard whose first call stalls until cancelled: the hedge must win.
	e0 := sqlpp.New(nil)
	stall := &stallFirstExecutor{LocalExecutor: NewLocal("s0", e0)}
	p := Policy{HedgeAfter: 5 * time.Millisecond, MaxAttempts: 1}
	co := NewCoordinator(sqlpp.New(nil), p, stall)
	if err := co.Distribute("xs", mustValue(t, "[1,2,3]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := co.Exec(ctx, "SELECT VALUE COUNT(*) FROM xs AS x")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.String(); got != "{{3}}" {
		t.Fatalf("got %s", got)
	}
	if stall.launches.Load() < 2 {
		t.Fatalf("launches = %d, want hedged second attempt", stall.launches.Load())
	}
	if co.Telemetry()[0].Hedges < 1 {
		t.Fatal("telemetry must count the hedge")
	}
}

// stallFirstExecutor blocks its first Exec until the context is
// cancelled; later Execs answer normally.
type stallFirstExecutor struct {
	*LocalExecutor
	launches atomicInt64
}

func (s *stallFirstExecutor) Exec(ctx context.Context, req Request) (*Response, error) {
	if s.launches.Add(1) == 1 {
		<-ctx.Done()
		return nil, Transient(ctx.Err())
	}
	return s.LocalExecutor.Exec(ctx, req)
}

// atomicInt64 avoids importing sync/atomic at every use site.
type atomicInt64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomicInt64) Add(d int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += d
	return a.n
}

func (a *atomicInt64) Load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

func TestDeadlineNeverHangs(t *testing.T) {
	// Every shard stalls forever: the query must come back within the
	// caller's deadline, as a typed error, not hang.
	e0 := sqlpp.New(nil)
	stall := &stallAlwaysExecutor{LocalExecutor: NewLocal("s0", e0)}
	co := NewCoordinator(sqlpp.New(nil), Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond}, stall)
	if err := co.Distribute("xs", mustValue(t, "[1]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := co.Exec(ctx, "SELECT VALUE COUNT(*) FROM xs AS x")
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v; scatter must respect the deadline", elapsed)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded cause", err)
	}
}

type stallAlwaysExecutor struct {
	*LocalExecutor
}

func (s *stallAlwaysExecutor) Exec(ctx context.Context, req Request) (*Response, error) {
	<-ctx.Done()
	return nil, Transient(fmt.Errorf("stalled: %w", ctx.Err()))
}

func TestEpochInvalidatesScatterPlans(t *testing.T) {
	co := NewLocalCluster(2, nil, Policy{})
	if err := co.Broadcast("xs", mustValue(t, "[1,2,3]")); err != nil {
		t.Fatal(err)
	}
	q := "SELECT VALUE SUM(x) FROM xs AS x"
	res, err := co.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "local" {
		t.Fatalf("class = %s, want local before distribution", res.Class)
	}
	// Re-distribute the same name as a sharded collection: the cached
	// local classification must not survive the epoch bump.
	if err := co.Distribute("xs", mustValue(t, "[1,2,3,4]"), Spec{}); err != nil {
		t.Fatal(err)
	}
	res, err = co.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "group" {
		t.Fatalf("class = %s, want group after distribution", res.Class)
	}
	if got := res.Value.String(); got != "{{10}}" {
		t.Fatalf("got %s", got)
	}
}

func TestParseKindAndFailMode(t *testing.T) {
	if k, err := ParseKind("hash"); err != nil || k != Hash {
		t.Fatalf("ParseKind(hash) = %v, %v", k, err)
	}
	if _, err := ParseKind("mod"); err == nil {
		t.Fatal("ParseKind(mod) must fail")
	}
	if m, ok := ParseFailMode("partial"); !ok || m != Partial {
		t.Fatalf("ParseFailMode(partial) = %v, %v", m, ok)
	}
	if _, ok := ParseFailMode("never"); ok {
		t.Fatal("ParseFailMode(never) must fail")
	}
}
