package value

import (
	"encoding/json"
	"strconv"
	"sync"
	"testing"
)

// jsonStrings are strings on every branch of AppendJSONString: the
// named escapes, the other control bytes, the HTML-unsafe bytes, DEL,
// multi-byte runes, U+2028/U+2029, and invalid UTF-8 alone, at the end
// and cut short.
var jsonStrings = []string{
	"", "plain", `q"uote`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f", "<a href='x'>&amp;</a>", "\x7f",
	"héllo wörld", "日本語", "\U0001F600", "line\u2028sep\u2029par", "\xff", "ok\xc3", "\xe2\x80", "a\xed\xa0\x80b",
	"\ufffd", "mixed \"<\u2028>\" \xfe\n end",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStrings {
		checkJSONString(t, s)
	}
	for c := 0; c < 256; c++ {
		checkJSONString(t, "x"+string(rune(c))+string([]byte{byte(c)})+"y")
	}
}

func FuzzJSONString(f *testing.F) {
	for _, s := range jsonStrings {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

func checkJSONString(t *testing.T, s string) {
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendJSONString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
		t.Fatalf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got[len("prefix"):], want)
	}
}

// A shape renders its JSON keys once, escaped as encoding/json escapes a
// name, shared by every tuple of it; reading them again allocates
// nothing, and their bytes count against the shape tree's bound.
func TestShapeJSONKeys(t *testing.T) {
	tableBytes := func() int {
		shapeMu.Lock()
		defer shapeMu.Unlock()
		return shapeTableBytes
	}
	shapeMu.Lock()
	emptyShapeTree() // so that the bound is not met mid-test
	shapeMu.Unlock()
	names := []string{"id", `a"b`, "<tag>", "id", "", "caf\xe9", "n" + strconv.Itoa(int(shapeGen.Load()))}
	s := ShapeOf(names...)
	before := tableBytes()
	keys, ends := s.JSONKeys()
	var want []byte
	for i, n := range names {
		b, _ := json.Marshal(n)
		want = append(append(want, b...), ':')
		if int(ends[i]) != len(want) {
			t.Fatalf("key %d ends at %d, want %d", i, ends[i], len(want))
		}
	}
	if string(keys) != string(want) || len(ends) != len(names) {
		t.Fatalf("JSONKeys = %s %v, want %s", keys, ends, want)
	}
	if got := tableBytes() - before; got != len(keys)+4*len(ends) {
		t.Errorf("rendering the keys charged the tree %d bytes, want %d", got, len(keys)+4*len(ends))
	}
	if n := testing.AllocsPerRun(100, func() { keys, ends = s.JSONKeys() }); n != 0 {
		t.Errorf("JSONKeys after the first call: %.0f allocations, want 0", n)
	}
	if k, _ := ShapeOf().JSONKeys(); len(k) != 0 {
		t.Errorf("the empty shape has keys %q", k)
	}
}

// Encoders racing to a shape's first encoding all read the one published
// rendering. Run with -race.
func TestShapeJSONKeysConcurrentFirstUse(t *testing.T) {
	s := ShapeOf("race", "keys", strconv.Itoa(int(shapeGen.Load())))
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for w := range got {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], _ = s.JSONKeys()
		}()
	}
	wg.Wait()
	for w := range got {
		if &got[w][0] != &got[0][0] {
			t.Fatalf("worker %d read a rendering nobody else shares", w)
		}
	}
}

// Equality is the per-row `=` of a WHERE clause: comparing scalars, and
// small tuples of a known shape, builds no key on the heap.
func TestEquivalentAllocatesNothing(t *testing.T) {
	shape := ShapeOf("id", "name")
	a, b := shape.New([]Value{Int(7), String("Ann")}), shape.New([]Value{Float(7), String("Ann")})
	pairs := [][2]Value{{Int(3), Float(3)}, {String("x"), String("y")}, {Null, Null}, {a, b}}
	for _, p := range pairs {
		p := p
		if n := testing.AllocsPerRun(100, func() { _ = Equivalent(p[0], p[1]) }); n != 0 {
			t.Errorf("Equivalent(%v, %v): %.0f allocations, want 0", p[0], p[1], n)
		}
	}
	if !Equivalent(a, b) || Equivalent(Int(3), String("3")) || !ContainsEquivalent([]Value{Null, Float(2)}, Int(2)) {
		t.Error("Equivalent disagrees with grouping equality")
	}
}
