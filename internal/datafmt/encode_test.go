package datafmt

import (
	"bytes"
	"testing"

	"sqlpp/internal/value"
)

func TestEncodeJSONWriter(t *testing.T) {
	var buf bytes.Buffer
	v := sion.MustParse(`{'a': [1, x'ff'], 'b': {{2, 1}}}`)
	if err := EncodeJSON(&buf, v); err != nil {
		t.Fatal(err)
	}
	want := `{"a":[1,"ff"],"b":[1,2]}`
	if buf.String() != want {
		t.Errorf("EncodeJSON = %s, want %s", buf.String(), want)
	}
	if err := EncodeJSON(&buf, value.Missing); err == nil {
		t.Error("MISSING must not encode")
	}
	// Nested MISSING inside a constructed value cannot occur (tuple
	// construction drops it), but a hand-built array can carry it.
	if err := EncodeJSON(&buf, value.Array{value.Missing}); err == nil {
		t.Error("nested MISSING must fail")
	}
}

func TestCSVFieldRendering(t *testing.T) {
	row := sion.MustParse(`{{ {'s': 'plain', 'i': 7, 'f': 1.5, 'b': true, 'n': null, 'nested': [1, 2]} }}`)
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, row); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "s,i,f,b,n,nested\nplain,7,1.5,true,null,\"[1, 2]\"\n"
	if got != want {
		t.Errorf("EncodeCSV = %q, want %q", got, want)
	}
}

func TestCBORLargeArguments(t *testing.T) {
	// Lengths crossing the 1-byte/2-byte/4-byte head boundaries.
	for _, n := range []int{23, 24, 255, 256, 65535, 65536} {
		s := value.String(bytes.Repeat([]byte{'a'}, n))
		enc, err := EncodeCBOR(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCBOR(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !value.DeepEqual(s, back) {
			t.Fatalf("n=%d round trip failed", n)
		}
	}
	// Negative and large integers at head boundaries.
	for _, i := range []int64{-1, -24, -25, -256, -257, 1 << 40, -(1 << 40)} {
		enc, err := EncodeCBOR(value.Int(i))
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCBOR(enc)
		if err != nil || !value.DeepEqual(value.Int(i), back) {
			t.Fatalf("int %d round trip: %v, %v", i, back, err)
		}
	}
}
