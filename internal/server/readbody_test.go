package server

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// readBody trusts a declared length for one allocation and no further
// than 1 MiB: what a client says costs nothing until it sends it.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("x", 100_000)
	for _, declared := range []int64{int64(len(body)), 10, -1, 1 << 40} {
		got, err := readBody(iotest.HalfReader(strings.NewReader(body)), declared)
		if err != nil || string(got) != body {
			t.Errorf("declared %d: read %d bytes, %v", declared, len(got), err)
		}
	}
	if got, _ := readBody(strings.NewReader(body), int64(len(body))); cap(got) >= 2*len(body) {
		t.Errorf("a body of its declared length regrew its buffer to %d bytes", cap(got))
	}
	got, _ := readBody(strings.NewReader("abc"), 32<<20)
	if cap(got) > 2<<20 {
		t.Errorf("3 bytes declared as 32 MiB hold a %d-byte buffer", cap(got))
	}
	boom := errors.New("boom")
	if _, err := readBody(io.MultiReader(strings.NewReader("ab"), iotest.ErrReader(boom)), 2); !errors.Is(err, boom) {
		t.Errorf("read error came back as %v", err)
	}
}
