package datafmt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/iotest"

	"sqlpp/internal/value"
)

// eventRows is n rows of the shape the ingest benchmark sends as CBOR: an
// array of four-attribute maps.
func eventRows(n int) value.Value {
	rows := make(value.Array, n)
	for i := range rows {
		rows[i] = value.NewTuple(
			value.Field{Name: "id", Value: value.Int(int64(i))},
			value.Field{Name: "usr", Value: value.Int(int64(i % 97))},
			value.Field{Name: "kind", Value: value.String([]string{"view", "buy", "it's"}[i%3])},
			value.Field{Name: "amount", Value: value.Int(int64(i*7) % 1000)},
		)
	}
	return rows
}

func mustEncodeCBOR(t testing.TB, v value.Value) []byte {
	t.Helper()
	enc, err := EncodeCBOR(v)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// The reader decoder is the slice decoder over a sliding window: it must
// agree with it however the bytes arrive, including items larger than the
// window.
func TestDecodeCBORFromMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vals := []value.Value{
		eventRows(5000), // spans several windows
		value.Bag{value.String(bytes.Repeat([]byte("x"), 100<<10)), value.Int(1)}, // one item wider than the window
		value.Array{},
	}
	for i := 0; i < 50; i++ {
		vals = append(vals, randomCBORValue(r, 4))
	}
	for _, v := range vals {
		enc := mustEncodeCBOR(t, v)
		want, err := DecodeCBOR(enc)
		if err != nil {
			t.Fatal(err)
		}
		readers := map[string]io.Reader{
			"whole":    bytes.NewReader(enc),
			"one-byte": iotest.OneByteReader(bytes.NewReader(enc)),
			"data+eof": iotest.DataErrReader(bytes.NewReader(enc)),
		}
		for name, rd := range readers {
			got, err := DecodeCBORFrom(rd)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s: reader and slice decoders disagree on %d bytes", name, len(enc))
			}
		}
	}
}

func TestDecodeCBORFromErrors(t *testing.T) {
	enc := mustEncodeCBOR(t, eventRows(100))

	_, err := DecodeCBORFrom(bytes.NewReader(enc[:len(enc)/2]))
	var syn *SyntaxError
	if !errors.As(err, &syn) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated input: got %v, want a *SyntaxError wrapping io.ErrUnexpectedEOF", err)
	}

	trailing := append(enc[:len(enc):len(enc)], 0x00)
	for _, rd := range []io.Reader{bytes.NewReader(trailing), iotest.DataErrReader(bytes.NewReader(trailing))} {
		_, err = DecodeCBORFrom(rd)
		if !errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("trailing byte: got %v, want a *SyntaxError", err)
		}
	}

	broken := errors.New("connection reset")
	_, err = DecodeCBORFrom(io.MultiReader(bytes.NewReader(enc[:50]), iotest.ErrReader(broken)))
	if !errors.Is(err, broken) {
		t.Errorf("failing reader: got %v, want the reader's error", err)
	}
}

// A length head near MaxInt64 used to wrap pos+n and slice out of range.
func TestCBORHostileHeads(t *testing.T) {
	huge := []byte{0x5b, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 'a'} // byte string of MaxInt64 bytes
	text := append([]byte{0x7b}, huge[1:]...)
	wrap := []byte{0x5b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 'a'} // 2^64-1 bytes
	for _, src := range [][]byte{huge, text, wrap} {
		if _, err := DecodeCBOR(src); err == nil {
			t.Errorf("DecodeCBOR(% x) should fail", src)
		}
		if _, err := DecodeCBORFrom(bytes.NewReader(src)); err == nil {
			t.Errorf("DecodeCBORFrom(% x) should fail", src)
		}
	}

	deep := bytes.Repeat([]byte{0x81}, 1<<20) // [[[[…
	for _, src := range [][]byte{deep, bytes.Repeat([]byte{0xc1}, 1<<20)} {
		_, err := DecodeCBOR(src)
		var syn *SyntaxError
		if !errors.As(err, &syn) {
			t.Errorf("nesting 2^20 deep: got %v, want a *SyntaxError", err)
		}
	}
	ok := append(bytes.Repeat([]byte{0x81}, MaxDepth), 0x00)
	if _, err := DecodeCBOR(ok); err != nil {
		t.Errorf("nesting of exactly MaxDepth: %v", err)
	}
}

// A streamed collection starts with almost no credit, so it grows as its
// elements arrive; it must still end at exactly the head's count, with no
// spare slots kept for as long as the collection lives.
func TestCBORStreamedBagFitsHead(t *testing.T) {
	const n = 50000
	enc := mustEncodeCBOR(t, value.Bag(eventRows(n).(value.Array)))
	v, err := DecodeCBORFrom(iotest.OneByteReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	bag, ok := v.(value.Bag)
	if !ok {
		t.Fatalf("decoded a %s, want a bag", v.Kind())
	}
	if len(bag) != n || cap(bag) != n {
		t.Fatalf("len %d cap %d, want both %d", len(bag), cap(bag), n)
	}
}

func TestWriteCBORMatchesEncode(t *testing.T) {
	for _, v := range []value.Value{eventRows(20000), value.Int(7), value.Bag{}} {
		var buf bytes.Buffer
		n, err := WriteCBOR(&buf, v)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) || !bytes.Equal(buf.Bytes(), mustEncodeCBOR(t, v)) {
			t.Errorf("WriteCBOR and EncodeCBOR differ on %d bytes", buf.Len())
		}
	}
	// A value that cannot be encoded and fits one chunk writes nothing, so
	// the server can still answer with an error status.
	var buf bytes.Buffer
	if n, err := WriteCBOR(&buf, value.Array{value.Int(1), value.Missing}); err == nil || n != 0 || buf.Len() != 0 {
		t.Errorf("unencodable value: err=%v, %d bytes written", err, buf.Len())
	}
}

// TestCBORPoolConcurrent runs WriteCBOR and DecodeCBORFrom from several
// goroutines at once, truncated inputs among them, so that every path
// out of the codec returns its pooled buffer (run it under -race): each
// value must decode as it was written and stay as decoded while other
// decodes reuse the buffers.
func TestCBORPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept []value.Value
			var want []string
			for i := 0; i < 30; i++ {
				// Strings unique to this goroutine and round, some longer
				// than a chunk so the window grows past the pool's bound.
				word := strconv.Itoa(g) + "-" + strconv.Itoa(i) + "-"
				long := string(bytes.Repeat([]byte(word), 1+(i%5)*cborChunk/len(word)))
				v := value.Array{eventRows(1 + i*7), value.String(word), value.String(long), value.Bytes(word)}
				var buf bytes.Buffer
				if _, err := WriteCBOR(&buf, v); err != nil {
					t.Error(err)
					return
				}
				enc := buf.Bytes()
				if _, err := DecodeCBORFrom(bytes.NewReader(enc[:len(enc)/2])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("truncated input: err = %v, want unexpected EOF", err)
					return
				}
				if _, err := WriteCBOR(&buf, value.Array{value.Missing}); err == nil {
					t.Error("MISSING encoded")
					return
				}
				back, err := DecodeCBORFrom(iotest.HalfReader(bytes.NewReader(enc)))
				if err != nil {
					t.Error(err)
					return
				}
				if back.String() != v.String() {
					t.Errorf("round trip changed the value")
					return
				}
				kept = append(kept, back)
				want = append(want, v.String())
			}
			for i, k := range kept {
				if k.String() != want[i] {
					t.Errorf("goroutine %d: decoded value %d changed after later decodes", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// allocatedBy is the number of bytes f allocates.
func allocatedBy(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// FuzzDecodeCBOR: the decoder reads bytes a data node or an ingest client
// chose. It must not panic, must not allocate out of proportion to its
// input whatever lengths the heads claim, and must agree with the reader
// decoder and with the encoder on everything it accepts.
func FuzzDecodeCBOR(f *testing.F) {
	f.Add(mustEncodeCBOR(f, eventRows(3)))
	f.Add(mustEncodeCBOR(f, value.Bag{eventRows(2), value.Float(math.Inf(-1)), value.Null, value.Bytes{0, 1}}))
	f.Add([]byte{0x9a, 0xff, 0xff, 0xff, 0xff})                         // array claiming 2^32-1 elements
	f.Add([]byte{0xba, 0xff, 0xff, 0xff, 0xff, 0x61, 'k', 0x01})        // map claiming 2^32-1 pairs
	f.Add([]byte{0x5b, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // byte string of MaxInt64 bytes
	f.Add(bytes.Repeat([]byte{0x81}, 4096))
	f.Add(bytes.Repeat([]byte{0x9a, 0x00, 0x10, 0x00, 0x00}, 64)) // nested arrays each claiming 2^20
	f.Fuzz(func(t *testing.T, data []byte) {
		// The densest inputs cost well under 128 B per byte: one-byte
		// integers at 24 B each (slot and box) in an array grown by
		// doubling, behind heads that spent the presizing credit on
		// nothing, or map entries of two bytes whose empty key is new in
		// its place (130-170 B each with the shape, measured cold, against
		// 256).
		v, err := decodeChecked(t, data, 0, func() (value.Value, error) { return DecodeCBOR(data) })
		fromReader, rerr := DecodeCBORFrom(iotest.HalfReader(bytes.NewReader(data)))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("slice decoder: %v; reader decoder: %v", err, rerr)
		}
		if err != nil {
			return
		}
		first := fromReader.String()
		if first != v.String() {
			t.Fatalf("slice and reader decoders disagree:\n%s\n%s", v, fromReader)
		}
		// The reader decoder's window is pooled: the next decode reads
		// other bytes through it, over every byte this input occupied.
		// Nothing the first decode returned may change.
		other := make([]byte, len(data))
		for i, b := range data {
			other[i] = ^b
		}
		_, _ = DecodeCBORFrom(bytes.NewReader(other))
		if again := fromReader.String(); again != first {
			t.Fatalf("a later decode changed a decoded value:\n%s\n%s", first, again)
		}
		enc, err := EncodeCBOR(v)
		if err != nil {
			t.Fatalf("accepted value does not encode: %v", err)
		}
		back, err := DecodeCBOR(enc)
		if err != nil || back.String() != v.String() {
			t.Fatalf("decode∘encode is not the identity on %s: %v, %v", v, back, err)
		}
	})
}
