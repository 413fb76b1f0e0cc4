package sqlpp_test

// Tuples keep their attribute names in a shared shape (internal/value).
// Which shape a tuple has, and whether it is shared, must be invisible:
// these tests hold logically equal tuples reached by different routes to
// be indistinguishable, and hold the sharing itself (one shape per name
// sequence, a resident size that reflects it) so tier-1 catches a
// regression without the benchmark harness.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

func TestEqualTuplesFromEveryRouteAreIndistinguishable(t *testing.T) {
	want := sion.MustParse(`{{ {'id': 1, 'name': 'Ann', 'ok': true, 'boss': null}, {'id': 2, 'name': 'Bo'} }}`)
	routes := map[string]value.Value{}
	var err error
	if routes["json"], err = datafmt.DecodeJSONBag(strings.NewReader(
		`[{"id":1,"name":"Ann","ok":true,"boss":null},{"id":2,"name":"Bo"}]`)); err != nil {
		t.Fatal(err)
	}
	if routes["jsonl, other order"], err = datafmt.DecodeJSONLines(strings.NewReader(
		"{\"boss\":null,\"ok\":true,\"name\":\"Ann\",\"id\":1}\n{\"name\":\"Bo\",\"id\":2}")); err != nil {
		t.Fatal(err)
	}
	if routes["csv"], err = datafmt.ParseCSV("id,name,ok,boss\n1,Ann,true,null\n2,Bo,,\n",
		datafmt.CSVOptions{EmptyAsMissing: true}); err != nil {
		t.Fatal(err)
	}
	enc, err := datafmt.EncodeCBOR(want)
	if err != nil {
		t.Fatal(err)
	}
	if routes["cbor"], err = datafmt.DecodeCBOR(enc); err != nil {
		t.Fatal(err)
	}
	if routes["cbor stream"], err = datafmt.DecodeCBORFrom(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	// Constructors: one whose shape is resolved at compile time and loses
	// attributes to MISSING, one whose names are computed per row, and
	// the interpreter's (the oracle path).
	db := sqlpp.New(nil)
	if err := db.Register("src", want); err != nil {
		t.Fatal(err)
	}
	static := `SELECT VALUE {'id': r.id, 'nope': r.nope, 'name': r.name, 'ok': r.ok, 'boss': r.boss} FROM src AS r`
	routes["constructor"] = db.MustQuery(static)
	routes["constructor, computed names"] = db.MustQuery(
		`SELECT VALUE {'i' || 'd': r.id, LOWER('NAME'): r.name, 'o' || 'k': r.ok, 'bo' || 'ss': r.boss} FROM src AS r`)
	routes["oracle"] = db.WithOptions(sqlpp.Options{DisableOptimizer: true}).MustQuery(static)
	routes["select list"] = db.MustQuery(`SELECT r.boss, r.ok, r.name, r.id, r.nope FROM src AS r`)

	for name, got := range routes {
		if !value.Equivalent(got, want) || value.Compare(got, want) != 0 || value.Key(got) != value.Key(want) {
			t.Errorf("%s: %v is not %v", name, got, want)
		}
		if value.ApproxSize(got) != value.ApproxSize(want) {
			t.Errorf("%s: ApproxSize %d, want %d: governor thresholds would move", name, value.ApproxSize(got), value.ApproxSize(want))
		}
	}
	// Same names in the same order is the same shape, whatever built it.
	first := func(v value.Value) *value.Shape {
		els, _ := value.Elements(v)
		for _, e := range els {
			if id, _ := e.(*value.Tuple).Get("id"); id == value.Int(1) {
				return e.(*value.Tuple).Shape()
			}
		}
		t.Fatalf("no row with id 1 in %v", v)
		return nil
	}
	for _, name := range []string{"json", "csv", "cbor", "cbor stream", "constructor", "constructor, computed names", "oracle"} {
		if first(routes[name]) != first(want) {
			t.Errorf("%s: row 1 has the names of the SION row in the same order but another shape", name)
		}
	}
}

// empLikeJSON renders n rows shaped like the benchmark's emp collection:
// six attributes, and with hetero about one row in ten deviating — title
// absent, salary absent, salary a string, salary null.
func empLikeJSON(n int, from int, hetero bool, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	titles := []string{"Engineer", "Manager", "Analyst", "Designer", "Director"}
	var b bytes.Buffer
	b.WriteByte('[')
	for i := from; i < from+n; i++ {
		if i > from {
			b.WriteByte(',')
		}
		kind := -1
		if hetero && r.Intn(10) == 0 {
			kind = r.Intn(4)
		}
		fmt.Fprintf(&b, `{"id":%d,"name":"Person %d-%d","deptno":%d`, i, r.Intn(900)+100, i, 1+r.Intn(400))
		if kind != 0 {
			fmt.Fprintf(&b, `,"title":%q`, titles[r.Intn(len(titles))])
		}
		switch salary := 40000 + r.Intn(120000); kind {
		case 1:
			fmt.Fprintf(&b, `,"salary":"%d"`, salary)
		case 2:
			b.WriteString(`,"salary":null`)
		case 3:
		default:
			fmt.Fprintf(&b, `,"salary":%d`, salary)
		}
		fmt.Fprintf(&b, `,"hired":%d}`, 1990+r.Intn(35))
	}
	b.WriteByte(']')
	return b.Bytes()
}

// shapesOf counts the distinct shapes and the distinct name sequences
// among a collection's rows.
func shapesOf(t *testing.T, db *sqlpp.Engine, name string) (shapes, sequences int) {
	v, _ := db.Lookup(name)
	els, _ := value.Elements(v)
	byShape, bySeq := map[*value.Shape]bool{}, map[string]bool{}
	for _, e := range els {
		tup := e.(*value.Tuple)
		byShape[tup.Shape()] = true
		bySeq[strings.Join(tup.Names(), "\x00")] = true
	}
	return len(byShape), len(bySeq)
}

// Rows share a shape exactly when they share a name sequence, and keep
// sharing it across an append that arrives in another format.
func TestCollectionRowsShareShapes(t *testing.T) {
	load := func(hetero bool) (shapes, sequences int) {
		db := sqlpp.New(nil)
		if err := db.RegisterJSON("emp", bytes.NewReader(empLikeJSON(5000, 0, hetero, 1))); err != nil {
			t.Fatal(err)
		}
		more, err := datafmt.DecodeJSONBag(bytes.NewReader(empLikeJSON(5000, 5000, hetero, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AppendSION("emp", more.String()); err != nil {
			t.Fatal(err)
		}
		return shapesOf(t, db, "emp")
	}
	for _, c := range []struct {
		hetero bool
		want   int
	}{
		{false, 1},
		// Of the four deviations two change a value's type and not the
		// name sequence: full, no title, no salary.
		{true, 3},
	} {
		shapes, sequences := load(c.hetero)
		if shapes != sequences {
			// The shape tree is bounded and other tests fill it: it may
			// have emptied itself between the two loads, once.
			shapes, sequences = load(c.hetero)
		}
		if shapes != c.want || sequences != c.want {
			t.Errorf("hetero=%v: 10000 rows over %d name sequences have %d shapes, want %d of each",
				c.hetero, sequences, shapes, c.want)
		}
	}
}

// Wide rows are ordinary data (feature tables, wide CSV exports): a row's
// names cost the shape tree in proportion to their number, so 200 rows of
// 2,000 attributes fit it many times over and share one shape, by every
// format, after the rows have been compared and keyed too.
func TestWideRowsShareOneShape(t *testing.T) {
	const rows, width = 200, 2000
	var js, csv bytes.Buffer
	for j := 0; j < width; j++ {
		fmt.Fprintf(&csv, "c%d,", j)
	}
	csv.Truncate(csv.Len() - 1)
	for i := 0; i < rows; i++ {
		js.WriteString("{")
		csv.WriteString("\n")
		for j := 0; j < width; j++ {
			fmt.Fprintf(&js, `"c%d":%d,`, j, i+j)
			fmt.Fprintf(&csv, "%d,", i+j)
		}
		js.Truncate(js.Len() - 1)
		csv.Truncate(csv.Len() - 1)
		js.WriteString("}\n")
	}
	load := func() (shapes int, equal bool) {
		db := sqlpp.New(nil)
		if err := db.RegisterJSONLines("wide", bytes.NewReader(js.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterCSV("widecsv", bytes.NewReader(csv.Bytes())); err != nil {
			t.Fatal(err)
		}
		a, _ := db.Lookup("wide")
		b, _ := db.Lookup("widecsv")
		equal = value.Equivalent(a, b) && value.Key(a) == value.Key(b) // sorts every shape's names
		both, _ := value.Elements(a)
		more, _ := value.Elements(b)
		byShape := map[*value.Shape]bool{}
		for _, e := range append(slices.Clone(both), more...) {
			byShape[e.(*value.Tuple).Shape()] = true
		}
		return len(byShape), equal
	}
	shapes, equal := load()
	if shapes != 1 {
		shapes, equal = load() // other tests fill the tree: it may have emptied itself, once
	}
	if shapes != 1 || !equal {
		t.Errorf("%d rows of %d attributes, as JSON and as CSV: %d shapes (want 1), equivalent=%v", 2*rows, width, shapes, equal)
	}
}

// TestResidentBytesPerInputByte is the benchmark's residency metric in
// miniature: what a registered collection (rows, statistics, catalog
// entry) keeps on the heap per byte of the compact JSON it came from.
// Shared shapes and exactly sized value slices put it near 2.5; the
// representation they replaced (a name and a value per attribute per
// row, in an append-grown slice) measured 5.1.
func TestResidentBytesPerInputByte(t *testing.T) {
	src := empLikeJSON(20000, 0, true, 3)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	db := sqlpp.New(nil)
	if err := db.RegisterJSON("emp", bytes.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	resident := float64(heap()-before) / float64(len(src))
	runtime.KeepAlive(db)
	runtime.KeepAlive(src) // or the input's own bytes would count as freed
	t.Logf("%.2f resident bytes per input byte (%d rows, %d input bytes)", resident, 20000, len(src))
	if resident > 3.2 {
		t.Errorf("%.2f resident bytes per input byte, want at most 3.2", resident)
	}
}

// Parallel scans whose rows construct tuples with names no one has used
// yet race through cold shape transitions (and, with 24,000 distinct
// names, through the shape tree emptying itself). Run with -race.
func TestParallelScansConstructThroughColdTransitions(t *testing.T) {
	db := sqlpp.New(&sqlpp.Options{Parallelism: 4})
	if err := db.RegisterJSON("emp", bytes.NewReader(empLikeJSON(6000, 0, true, 4))); err != nil {
		t.Fatal(err)
	}
	oracle := db.WithOptions(sqlpp.Options{DisableOptimizer: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT VALUE {'w%d': e.id, e.name || '%d': e.salary, 'id': e.id, e.title: e.hired}
				FROM emp AS e WHERE e.deptno > 0`, w, w)
			p, err := db.Prepare(q)
			if err != nil {
				t.Error(err)
				return
			}
			if !strings.Contains(strings.Join(p.PlanNotes(), " "), "parallel-scan") {
				t.Errorf("plan is not parallel: %v", p.PlanNotes())
			}
			got, err := p.Exec()
			if err != nil {
				t.Error(err)
				return
			}
			if want := oracle.MustQuery(q); !value.Equivalent(got, want) {
				t.Errorf("worker %d: parallel result differs from the oracle's", w)
			}
		}(w)
	}
	wg.Wait()
}
