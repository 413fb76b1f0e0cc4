package catalog_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"sqlpp/internal/catalog"
	"sqlpp/internal/index"
	"sqlpp/internal/value"
)

// eventRows returns n rows {'id', 'usr', 'kind', 'amount'} with ids
// from lo.
func eventRows(lo, n int) []value.Value {
	kinds := []value.Value{value.String("click"), value.String("view"), value.String("order")}
	out := make([]value.Value, n)
	for i := range out {
		id := lo + i
		t := value.EmptyTuple()
		t.Put("id", value.Int(int64(id)))
		t.Put("usr", value.Int(int64(id%1000)))
		t.Put("kind", kinds[id%len(kinds)])
		t.Put("amount", value.Int(int64(id*7%500)))
		out[i] = t
	}
	return out
}

// indexedEvents registers base rows as "ev" with a hash index on usr
// and an ordered index on id.
func indexedEvents(t *testing.T, base int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Register("ev", value.Bag(eventRows(0, base))); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []index.Spec{spec("ev_usr", "ev", "usr", index.Hash), spec("ev_id", "ev", "id", index.Ordered)} {
		if err := c.CreateIndex(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestAppendCostIndependentOfSize: an append allocates for the rows it
// adds, not for the collection it lands on. Sixty-four appends of 250
// rows cost about as much per row onto 200k rows as onto 20k.
func TestAppendCostIndependentOfSize(t *testing.T) {
	const appends, rows = 64, 250
	perRow := map[int]float64{}
	for _, base := range []int{20_000, 200_000} {
		c := indexedEvents(t, base)
		batches := make([][]value.Value, appends)
		for i := range batches {
			batches[i] = eventRows(base+i*rows, rows)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range batches {
			if err := c.Append("ev", b, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRow[base] = float64(after.TotalAlloc-before.TotalAlloc) / (appends * rows)
		ix, _ := c.LookupIndex("ev_id")
		if ix.Len() != base+appends*rows {
			t.Fatalf("index covers %d rows, want %d", ix.Len(), base+appends*rows)
		}
	}
	ratio := perRow[200_000] / perRow[20_000]
	t.Logf("bytes per appended row: %.0f onto 20k, %.0f onto 200k (ratio %.2f)", perRow[20_000], perRow[200_000], ratio)
	if ratio > 1.5 {
		t.Errorf("appending onto 200k rows costs %.2fx as much per row as onto 20k, want <= 1.5", ratio)
	}
}

// TestAppendPublishesClippedValue: the published collection has no
// spare capacity, so no reader's append can reach the catalog's tail.
func TestAppendPublishesClippedValue(t *testing.T) {
	c := indexedEvents(t, 10)
	for i := 0; i < 5; i++ {
		if err := c.Append("ev", eventRows(10+i*3, 3), nil); err != nil {
			t.Fatal(err)
		}
		v, _ := c.LookupValue("ev")
		b := v.(value.Bag)
		if len(b) != 13+i*3 || cap(b) != len(b) {
			t.Fatalf("append %d: published len %d cap %d, want len %d and cap == len", i, len(b), cap(b), 13+i*3)
		}
	}
}

// ids returns the id attribute of every element of the collection.
func ids(t *testing.T, c *catalog.Catalog) []int64 {
	t.Helper()
	v, _ := c.LookupValue("ev")
	els, _ := value.Elements(v)
	out := make([]int64, len(els))
	for i, e := range els {
		id, _ := e.(*value.Tuple).Get("id")
		out[i] = int64(id.(value.Int))
	}
	return out
}

// TestCloneAppendIsolation: a clone and its origin both append after
// the split, into rows the origin's tail has room for, and each sees
// only its own rows — in the value and in its indexes.
func TestCloneAppendIsolation(t *testing.T) {
	c := indexedEvents(t, 4)
	if err := c.Append("ev", eventRows(4, 1), nil); err != nil { // c now owns a tail with room
		t.Fatal(err)
	}
	d := c.Clone()
	for _, step := range []struct {
		c  *catalog.Catalog
		id int
	}{{c, 100}, {d, 200}, {c, 101}} {
		if err := step.c.Append("ev", eventRows(step.id, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		c    *catalog.Catalog
		want []int64
	}{
		{"origin", c, []int64{0, 1, 2, 3, 4, 100, 101}},
		{"clone", d, []int64{0, 1, 2, 3, 4, 200}},
	} {
		if got := ids(t, tc.c); !slices.Equal(got, tc.want) {
			t.Errorf("%s ids = %v, want %v", tc.name, got, tc.want)
		}
		ix, _ := tc.c.LookupIndex("ev_id")
		if got := ix.Lookup(value.Int(tc.want[5])); len(got) != 1 || got[0] != 5 {
			t.Errorf("%s Lookup(%d) = %v, want [5]", tc.name, tc.want[5], got)
		}
		other := 300 - tc.want[5] // the other side's first row
		if got := ix.Lookup(value.Int(other)); got != nil {
			t.Errorf("%s index sees the other side's row %d: %v", tc.name, other, got)
		}
	}
}

// TestAppendSnapshotStableUnderReaders: readers scan and probe one
// snapshot while a writer appends into the tail behind it; the
// snapshot never changes. Run with -race.
func TestAppendSnapshotStableUnderReaders(t *testing.T) {
	c := indexedEvents(t, 200)
	if err := c.Append("ev", eventRows(200, 10), nil); err != nil {
		t.Fatal(err)
	}
	snap, _ := c.LookupValue("ev")
	ix, _ := c.LookupIndex("ev_usr")
	want := ids(t, c)

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				els, _ := value.Elements(snap)
				if len(els) != len(want) {
					t.Errorf("snapshot length %d, want %d", len(els), len(want))
					return
				}
				for i, e := range els {
					if id, _ := e.(*value.Tuple).Get("id"); int64(id.(value.Int)) != want[i] {
						t.Errorf("snapshot row %d has id %v, want %d", i, id, want[i])
						return
					}
				}
				if got := ix.Lookup(value.Int(7)); len(got) != 1 || got[0] != 7 {
					t.Errorf("snapshot index Lookup(7) = %v, want [7]", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := c.Append("ev", eventRows(210+i*5, 5), nil); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if got := len(ids(t, c)); got != 410 {
		t.Errorf("after appends the catalog holds %d rows, want 410", got)
	}
}
