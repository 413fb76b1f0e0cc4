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

	keys := make([]server.Key, 3)
	for i := range keys {
		q := fmt.Sprintf("SELECT VALUE %d", i)
		keys[i] = server.Key{Options: opts, Text: q}
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
	c.Put(server.Key{Options: opts, Text: "SELECT VALUE 99"}, preparedPlan(t, db, "SELECT VALUE 99"))
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
	base := server.Key{Text: q}
	distinct := []server.Key{
		{Options: sqlpp.Options{Compat: true}, Text: q},
		{Params: "$p", Text: q},
		{Epoch: 1, Text: q},
		{Explain: true, Text: q},
		{Text: "SELECT VALUE 2"},
	}
	seen := map[server.Key]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[k] = true
	}
}

// TestCacheKeyCoversEveryOption flips every field of sqlpp.Options (and
// of its Limits) in turn and requires a key no other setting produced:
// a field of Options that did not reach the key would let one request
// run under another's plan. Template keys must differ from every text
// key too, whatever the text holds.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	var opts sqlpp.Options
	text, _, ok := sqlpp.TemplateText(nil, "SELECT VALUE 1")
	if !ok {
		t.Fatal("no template text")
	}
	seen := map[server.Key]string{}
	record := func(what string) {
		for _, key := range []server.Key{{Options: opts, Text: "q"}, {Options: opts, Template: true, Text: string(text)}} {
			if other, dup := seen[key]; dup {
				t.Errorf("the text or template key ignores %s: same key as %s", what, other)
			}
			seen[key] = what
		}
	}
	record("the zero Options")
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
			record("Options." + name)
			f.SetZero()
		}
	}
	flip(reflect.ValueOf(&opts).Elem(), "")

	for _, q := range []string{"", "T", string(text), "T" + string(text), "\x00" + string(text)} {
		if (server.Key{Options: opts, Text: q}) == (server.Key{Options: opts, Template: true, Text: string(text)}) {
			t.Errorf("text %q has the template's key", q)
		}
	}
}

// TestTemplateTextKeys: same-width, same-kind literals share a template
// text; any other difference — a width, a kind, a string literal, an
// identifier — does not.
func TestTemplateTextKeys(t *testing.T) {
	key := func(q string) string {
		text, _, ok := sqlpp.TemplateText(nil, q)
		if !ok {
			t.Fatalf("%q has no template text", q)
		}
		return string(text)
	}
	base := key("SELECT VALUE x FROM t AS x WHERE x.a = 17 AND x.b = 'k'")
	if key("SELECT VALUE x FROM t AS x WHERE x.a = 42 AND x.b = 'k'") != base {
		t.Error("same-width literals must share a template")
	}
	for _, q := range []string{
		"SELECT VALUE x FROM t AS x WHERE x.a = 5 AND x.b = 'k'",
		"SELECT VALUE x FROM t AS x WHERE x.a = 1.5 AND x.b = 'k'",
		"SELECT VALUE x FROM t AS x WHERE x.a = 17 AND x.b = 'j'",
		"SELECT VALUE y FROM t AS y WHERE y.a = 17 AND y.b = 'k'",
	} {
		if key(q) == base {
			t.Errorf("%q shares the template of its base text", q)
		}
	}
	// An integer too wide for 64 bits reads as a float: another kind.
	if key("SELECT VALUE 9999999999999999999") == key("SELECT VALUE 1000000000000000000") {
		t.Error("an overflowing integer must not share an integer's template")
	}
	for _, q := range []string{"SELECT VALUE 'no numbers'", "SELECT 'open", "SELECT VALUE 1e999"} {
		if _, _, ok := sqlpp.TemplateText(nil, q); ok {
			t.Errorf("%q must have no template text", q)
		}
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := sqlpp.New(nil)
	c := server.NewPlanCache(-1)
	key := server.Key{Options: db.Options(), Text: "SELECT VALUE 1"}
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
	keys := make([]server.Key, 16)
	for i := range plans {
		q := fmt.Sprintf("SELECT VALUE %d", i)
		plans[i] = preparedPlan(t, db, q)
		keys[i] = server.Key{Options: opts, Text: q}
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
	key := server.Key{Options: db.Options(), Text: "SELECT VALUE 1"}
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
