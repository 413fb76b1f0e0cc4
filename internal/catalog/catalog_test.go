package catalog

import (
	"sync"
	"testing"

	"sqlpp/internal/value"
)

func TestRegisterLookup(t *testing.T) {
	c := New()
	if err := c.Register("hr.emp", value.Bag{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	v, ok := c.LookupValue("hr.emp")
	if !ok || v.Kind() != value.KindBag {
		t.Errorf("lookup = %v, %v", v, ok)
	}
	if !c.HasName("hr.emp") || c.HasName("hr") {
		t.Error("HasName should match exact names only")
	}
	// Replace.
	if err := c.Register("hr.emp", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	v, _ = c.LookupValue("hr.emp")
	if v != value.Int(2) {
		t.Error("Register should replace")
	}
	// Drop.
	c.Drop("hr.emp")
	if c.HasName("hr.emp") {
		t.Error("Drop failed")
	}
	c.Drop("never-existed") // no-op
}

func TestEmptyNameRejected(t *testing.T) {
	if err := New().Register("", value.Null); err == nil {
		t.Error("empty name should be rejected")
	}
}

func TestNilValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil value should panic")
		}
	}()
	_ = New().Register("x", nil)
}

func TestNames(t *testing.T) {
	c := New()
	for _, n := range []string{"b", "hr.emp", "hr.dept", "sales.q1.eu"} {
		if err := c.Register(n, value.Null); err != nil {
			t.Fatal(err)
		}
	}
	names := c.Names()
	want := []string{"b", "hr.dept", "hr.emp", "sales.q1.eu"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i%4))
			for j := 0; j < 200; j++ {
				_ = c.Register(name, value.Int(int64(j)))
				c.LookupValue(name)
				c.HasName(name)
			}
		}(i)
	}
	wg.Wait()
}
