package server_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqlpp"
	"sqlpp/internal/server"
)

func preparedPlan(t *testing.T, db *sqlpp.Engine, q string) server.Plan {
	t.Helper()
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return server.Plan{Prepared: p}
}

func TestPlanCacheLRU(t *testing.T) {
	db := sqlpp.New(nil)
	c := server.NewPlanCache(2)
	opts := db.Options()

	keys := make([]string, 3)
	for i := range keys {
		q := fmt.Sprintf("SELECT VALUE %d", i)
		keys[i] = server.CacheKey(opts, nil, q)
		c.Put(keys[i], preparedPlan(t, db, q))
	}
	// Capacity 2: key 0 was evicted, 1 and 2 remain.
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived past capacity")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Error("entry 1 missing")
	}
	// Touch 1, then insert a new entry: 2 is now the LRU victim.
	c.Put(server.CacheKey(opts, nil, "SELECT VALUE 99"), preparedPlan(t, db, "SELECT VALUE 99"))
	if _, ok := c.Get(keys[2]); ok {
		t.Error("LRU victim survived")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}

	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after purge = %d, want 0", c.Len())
	}
	if hits, misses := c.Hits(), c.Misses(); hits == 0 || misses == 0 {
		t.Errorf("counters not tracked: hits=%d misses=%d", hits, misses)
	}
}

func TestPlanCacheKeyPartitions(t *testing.T) {
	q := "SELECT VALUE 1"
	base := server.CacheKey(sqlpp.Options{}, nil, q)
	distinct := []string{
		server.CacheKey(sqlpp.Options{Compat: true}, nil, q),
		server.CacheKey(sqlpp.Options{}, []string{"$p"}, q),
		server.CacheKey(sqlpp.Options{}, nil, "SELECT VALUE 2"),
	}
	seen := map[string]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[k] = true
	}
	// Parameter order must not matter.
	a := server.CacheKey(sqlpp.Options{}, []string{"$a", "$b"}, q)
	b := server.CacheKey(sqlpp.Options{}, []string{"$b", "$a"}, q)
	if a != b {
		t.Error("cache key depends on parameter order")
	}
}

// TestCacheKeyCoversEveryOption flips every field of sqlpp.Options (and
// of its Limits) in turn and requires a key no other setting produced.
// CacheKey is a hand-written field list: a field added to Options and
// forgotten there would let one request run under another's plan, and
// this is the test that fails then.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	var opts sqlpp.Options
	seen := map[string]string{server.CacheKey(opts, nil, "q"): "the zero Options"}
	var flip func(v reflect.Value, path string)
	flip = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				flip(f, name+".")
				continue
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(7)
			default:
				t.Fatalf("%s: kind %s is not handled; extend this test", name, f.Kind())
			}
			key := server.CacheKey(opts, nil, "q")
			if other, dup := seen[key]; dup {
				t.Errorf("CacheKey ignores Options.%s: same key as %s", name, other)
			}
			seen[key] = "Options." + name
			f.SetZero()
		}
	}
	flip(reflect.ValueOf(&opts).Elem(), "")
}

func TestPlanCacheDisabled(t *testing.T) {
	db := sqlpp.New(nil)
	c := server.NewPlanCache(-1)
	key := server.CacheKey(db.Options(), nil, "SELECT VALUE 1")
	c.Put(key, preparedPlan(t, db, "SELECT VALUE 1"))
	if _, ok := c.Get(key); ok {
		t.Error("disabled cache returned a plan")
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache holds %d entries", c.Len())
	}
}

// TestPlanCacheConcurrent hammers Get/Put/Purge from many goroutines;
// meaningful under -race.
func TestPlanCacheConcurrent(t *testing.T) {
	db := sqlpp.New(nil)
	c := server.NewPlanCache(8)
	opts := db.Options()

	plans := make([]server.Plan, 16)
	keys := make([]string, 16)
	for i := range plans {
		q := fmt.Sprintf("SELECT VALUE %d", i)
		plans[i] = preparedPlan(t, db, q)
		keys[i] = server.CacheKey(opts, nil, q)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (seed + i) % len(keys)
				if p, ok := c.Get(keys[k]); ok {
					if _, err := p.Prepared.Exec(); err != nil {
						t.Error(err)
						return
					}
				} else {
					c.Put(keys[k], plans[k])
				}
				if i%97 == 0 {
					c.Purge()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlanCacheRefreshDuringGet refreshes one key while another goroutine
// reads it: Put writes the entry under the lock, so Get must read it
// there too. Meaningful under -race.
func TestPlanCacheRefreshDuringGet(t *testing.T) {
	db := sqlpp.New(nil)
	c := server.NewPlanCache(4)
	key := server.CacheKey(db.Options(), nil, "SELECT VALUE 1")
	p := preparedPlan(t, db, "SELECT VALUE 1")
	c.Put(key, p)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Put(key, p)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if got, ok := c.Get(key); !ok || got.Prepared != p.Prepared {
				t.Error("a refreshed key missed or changed its plan")
				return
			}
		}
	}()
	wg.Wait()
}
