package datafmt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sqlpp/internal/value"
)

// legacyJSON is the encoder the JSONWriter replaced, kept verbatim as
// its oracle: one json.Marshal per string and attribute name, bags
// sorted in a fresh copy.
func legacyJSON(buf *bytes.Buffer, v value.Value) error {
	switch x := v.(type) {
	case value.Bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case value.Int:
		buf.WriteString(strconv.FormatInt(int64(x), 10))
	case value.Float:
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			buf.WriteString("null") // JSON cannot express them
			return nil
		}
		buf.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case value.String:
		b, err := json.Marshal(string(x))
		if err != nil {
			return err
		}
		buf.Write(b)
	case value.Bytes:
		const hex = "0123456789abcdef"
		buf.WriteByte('"')
		for _, c := range x {
			buf.WriteByte(hex[c>>4])
			buf.WriteByte(hex[c&0xf])
		}
		buf.WriteByte('"')
	case value.Array:
		return legacySeq(buf, x)
	case value.Bag:
		sorted := make([]value.Value, len(x))
		copy(sorted, x)
		sort.SliceStable(sorted, func(i, j int) bool { return value.Compare(sorted[i], sorted[j]) < 0 })
		return legacySeq(buf, sorted)
	case *value.Tuple:
		buf.WriteByte('{')
		vals := x.Values()
		for i, name := range x.Names() {
			if i > 0 {
				buf.WriteByte(',')
			}
			b, err := json.Marshal(name)
			if err != nil {
				return err
			}
			buf.Write(b)
			buf.WriteByte(':')
			if err := legacyJSON(buf, vals[i]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		switch v.Kind() {
		case value.KindNull:
			buf.WriteString("null")
		case value.KindMissing:
			return fmt.Errorf("datafmt: MISSING cannot be encoded as JSON")
		default:
			return fmt.Errorf("datafmt: cannot encode %s as JSON", v.Kind())
		}
	}
	return nil
}

func legacySeq(buf *bytes.Buffer, vs []value.Value) error {
	buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			buf.WriteByte(',')
		}
		if err := legacyJSON(buf, v); err != nil {
			return err
		}
	}
	buf.WriteByte(']')
	return nil
}

func legacyJSONString(v value.Value) (string, error) {
	var buf bytes.Buffer
	err := legacyJSON(&buf, v)
	return buf.String(), err
}

// oddStrings reach every escape of the string encoder.
var oddStrings = []string{"", "a", `"q"`, `\`, "\n\t\b\f\r", "\x00\x1f", "<&>", "\u2028\u2029", "\xff\xfe", "ü日\U0001F600", "x\xc3"}

// randomEncodable builds a value of every kind JSON can encode, with
// tuples whose names need escaping or repeat, nested bags whose order the
// encoder must canonicalize, and floats on every formatting branch.
func randomEncodable(r *rand.Rand, depth int) value.Value {
	kinds := 12
	if depth <= 0 {
		kinds = 8
	}
	switch r.Intn(kinds) {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63n(2000) - 1000)
	case 3:
		return value.Float([]float64{0, math.Copysign(0, -1), 1.5, 3, 1e21, 1e-7, 123456789.125, math.NaN(), math.Inf(1), math.MaxFloat64, 5e-324}[r.Intn(11)])
	case 4, 5:
		return value.String(oddStrings[r.Intn(len(oddStrings))])
	case 6:
		return value.Bytes(oddStrings[r.Intn(len(oddStrings))])
	case 7:
		return value.Int(r.Int63n(3)) // ties in bags
	case 8:
		out := make(value.Array, r.Intn(4))
		for i := range out {
			out[i] = randomEncodable(r, depth-1)
		}
		return out
	case 9:
		out := make(value.Bag, r.Intn(6))
		for i := range out {
			out[i] = randomEncodable(r, depth-1)
		}
		return out
	default:
		t := value.EmptyTuple()
		for n := r.Intn(4); n > 0; n-- {
			t.Put(oddStrings[r.Intn(len(oddStrings))], randomEncodable(r, depth-1))
		}
		return t
	}
}

func TestJSONWriterMatchesLegacyEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		v := randomEncodable(r, 3)
		want, werr := legacyJSONString(v)
		got, err := JSONString(v)
		if (err != nil) != (werr != nil) || got != want && err == nil {
			t.Fatalf("JSONString(%v) = %s, %v; the legacy encoder wrote %s, %v", v, got, err, want, werr)
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, v); err != nil || buf.String() != want {
			t.Fatalf("EncodeJSON(%v) = %s, %v; want %s", v, buf.String(), err, want)
		}
	}
}

// chunkRecorder keeps every write apart.
type chunkRecorder struct{ writes [][]byte }

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// A large value leaves the writer in chunks of about jsonChunk bytes that
// add up to the one encoding; a small one that fails leaves it untouched.
func TestJSONWriterStreamsInChunks(t *testing.T) {
	rows := make(value.Bag, 3000)
	for i := range rows {
		rows[i] = value.ShapeOf("id", "name <x>").New([]value.Value{value.Int(int64(len(rows) - i)), value.String(strings.Repeat("n", i%50))})
	}
	want, err := JSONString(rows)
	if err != nil {
		t.Fatal(err)
	}
	var rec chunkRecorder
	if err := EncodeJSON(&rec, rows); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) < 2 || string(bytes.Join(rec.writes, nil)) != want {
		t.Fatalf("%d writes that do not add up to the %d-byte encoding", len(rec.writes), len(want))
	}
	for i, w := range rec.writes[:len(rec.writes)-1] {
		if len(w) < jsonChunk || len(w) > jsonChunk+256 {
			t.Errorf("write %d is %d bytes, want a chunk of about %d", i, len(w), jsonChunk)
		}
	}
	rec = chunkRecorder{}
	if err := EncodeJSON(&rec, value.Array{value.Int(1), value.Missing}); err == nil || len(rec.writes) != 0 {
		t.Errorf("a small value that cannot encode: %v, %d writes", err, len(rec.writes))
	}
}

// Encoding a result costs no allocation per row: names come escaped from
// the shape, scalars are appended in place, and the bag is ordered on
// the pooled writer's own stack. (Under -race the pool drops some writers,
// which costs a few allocations per run, never per row.)
func TestEncodeJSONAllocatesNothingPerRow(t *testing.T) {
	shape := value.ShapeOf("id", "name", "salary", "tags")
	rows := make(value.Bag, 10000)
	for i := range rows {
		rows[i] = shape.New([]value.Value{value.Int(int64(i * 7919 % 10000)), value.String(fmt.Sprintf("emp \"%d\"", i)),
			value.Float(float64(i) * 1.25), value.Bag{value.String("b"), value.String("a")}})
	}
	_ = EncodeJSON(io.Discard, rows)
	if n := testing.AllocsPerRun(5, func() {
		if err := EncodeJSON(io.Discard, rows); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("encoding %d rows: %.0f allocations, want a handful per result", len(rows), n)
	}
}
