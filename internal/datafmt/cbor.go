package datafmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"sqlpp/internal/value"
)

// This file implements a from-scratch CBOR (RFC 8949) codec for the
// subset the SQL++ logical model needs: unsigned/negative integers (major
// types 0/1), byte strings (2), text strings (3), arrays (4), maps with
// text keys (5), and the simple values false/true/null plus float64
// (major type 7). Tag 258 ("mathematical finite set") marks bags on
// encode and is honored on decode; other tags (major type 6) are skipped
// transparently.

const cborBagTag = 258

// CBORContentType is the media type of a CBOR body.
const CBORContentType = "application/cbor"

// DecodeCBOR decodes a single CBOR data item.
func DecodeCBOR(data []byte) (value.Value, error) {
	d := &cborDecoder{buf: data, builder: builder{format: "cbor", credit: len(data)}}
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.buf) {
		return nil, d.errf("%d trailing bytes after CBOR item", len(d.buf)-d.pos)
	}
	return v, nil
}

// DecodeCBORFrom decodes a single CBOR data item from r as the bytes
// arrive, holding only a window of the input; r must end where the item
// does. The window is a pooled chunk buffer: nothing decoded refers to
// it, since strings, byte strings and attribute names are copied out.
func DecodeCBORFrom(r io.Reader) (value.Value, error) {
	buf := getCBORBuf()
	d := cborDecoder{r: r, buf: *buf, builder: builder{format: "cbor"}}
	defer func() {
		*buf = d.buf
		putCBORBuf(buf)
	}()
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if err := d.fill(1); err == nil {
		return nil, d.errf("trailing bytes after CBOR item")
	} else if d.rerr != io.EOF {
		return nil, err
	}
	return v, nil
}

// cborDecoder reads from buf[pos:]. With r nil, buf is the whole input;
// otherwise it is a window that fill slides along r.
type cborDecoder struct {
	buf []byte
	pos int
	r   io.Reader
	// base is the input offset of buf[0]; rerr the error that ended r.
	base int64
	rerr error
	// builder's credit grows by each byte read.
	builder
}

func (d *cborDecoder) errf(format string, args ...any) error {
	return &SyntaxError{Format: "cbor", Offset: d.base + int64(d.pos), Msg: fmt.Sprintf(format, args...)}
}

// fill makes buf[pos:pos+n] available, reading on from r.
func (d *cborDecoder) fill(n int) error {
	if n <= len(d.buf)-d.pos {
		return nil
	}
	if d.r == nil || d.rerr != nil {
		return d.truncated(n)
	}
	d.base += int64(d.pos)
	d.buf = d.buf[:copy(d.buf, d.buf[d.pos:])]
	d.pos = 0
	for len(d.buf) < n {
		if len(d.buf) == cap(d.buf) {
			// Grow only as fast as bytes actually arrive, whatever length
			// the item's head claims.
			d.buf = append(d.buf, 0)[:len(d.buf)]
		}
		m, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		d.credit += m
		if err != nil {
			d.rerr = err
			if len(d.buf) < n {
				return d.truncated(n)
			}
		}
	}
	return nil
}

func (d *cborDecoder) truncated(n int) error {
	if d.rerr != nil && d.rerr != io.EOF {
		return fmt.Errorf("datafmt: cbor offset %d: %w", d.base+int64(len(d.buf)), d.rerr)
	}
	return &SyntaxError{Format: "cbor", Offset: d.base + int64(len(d.buf)), Err: io.ErrUnexpectedEOF,
		Msg: fmt.Sprintf("truncated item (need %d bytes)", n)}
}

func (d *cborDecoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		if err := d.fill(1); err != nil {
			return 0, err
		}
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// take returns the next n input bytes; the slice is valid until the next
// read.
func (d *cborDecoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.pos) {
		if n > math.MaxInt32 {
			return nil, d.errf("item of %d bytes is too large", n)
		}
		if err := d.fill(int(n)); err != nil {
			return nil, err
		}
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

// head reads a major type, its additional-info bits, and its argument.
// Indefinite lengths are not supported (RFC 8949 deterministic encoding
// forbids them too).
func (d *cborDecoder) head() (major, info byte, arg uint64, err error) {
	b, err := d.byte()
	if err != nil {
		return 0, 0, 0, err
	}
	major = b >> 5
	info = b & 0x1f
	switch {
	case info < 24:
		return major, info, uint64(info), nil
	case info == 24:
		c, err := d.byte()
		return major, info, uint64(c), err
	case info == 25:
		bs, err := d.take(2)
		if err != nil {
			return 0, 0, 0, err
		}
		return major, info, uint64(binary.BigEndian.Uint16(bs)), nil
	case info == 26:
		bs, err := d.take(4)
		if err != nil {
			return 0, 0, 0, err
		}
		return major, info, uint64(binary.BigEndian.Uint32(bs)), nil
	case info == 27:
		bs, err := d.take(8)
		if err != nil {
			return 0, 0, 0, err
		}
		return major, info, binary.BigEndian.Uint64(bs), nil
	}
	return 0, 0, 0, d.errf("unsupported additional info %d (indefinite lengths are not supported)", info)
}

func (d *cborDecoder) value() (value.Value, error) {
	major, info, arg, err := d.head()
	if err != nil {
		return nil, err
	}
	switch major {
	case 0: // unsigned int
		if arg > math.MaxInt64 {
			return value.Float(float64(arg)), nil
		}
		return value.Int(int64(arg)), nil
	case 1: // negative int: -1 - arg
		if arg > math.MaxInt64 {
			return value.Float(-1 - float64(arg)), nil
		}
		return value.Int(-1 - int64(arg)), nil
	case 2: // byte string
		bs, err := d.take(arg)
		if err != nil {
			return nil, err
		}
		out := make(value.Bytes, len(bs))
		copy(out, bs)
		return out, nil
	case 3: // text string
		bs, err := d.take(arg)
		if err != nil {
			return nil, err
		}
		return value.String(bs), nil
	case 4, 5, 6:
		return d.nested(major, arg)
	case 7: // simple / float
		if info < 24 {
			switch arg {
			case 20:
				return value.False, nil
			case 21:
				return value.True, nil
			case 22, 23: // null, undefined — undefined maps to NULL too
				return value.Null, nil
			}
			return nil, d.errf("unsupported simple value %d", arg)
		}
		switch info {
		case 25: // half-precision float
			return value.Float(float16ToFloat64(uint16(arg))), nil
		case 26: // single-precision float
			return value.Float(float64(math.Float32frombits(uint32(arg)))), nil
		case 27: // double-precision float
			return value.Float(math.Float64frombits(arg)), nil
		}
		return nil, d.errf("unsupported simple value %d", arg)
	}
	return nil, d.errf("unsupported major type %d", major)
}

// key decodes a map key, which must be a text string, as a window of
// the input: valid until the next read.
func (d *cborDecoder) key() ([]byte, error) {
	major, _, arg, err := d.head()
	if err != nil {
		return nil, err
	}
	if major != 3 {
		return nil, d.errf("map key has major type %d; only text keys map to tuples", major)
	}
	return d.take(arg)
}

// nested decodes the items inside an array, map or tag head.
func (d *cborDecoder) nested(major byte, arg uint64) (value.Value, error) {
	off := d.base + int64(d.pos)
	if major == 6 { // tag
		if _, err := d.open(off); err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.shut()
		if a, ok := v.(value.Array); ok && arg == cborBagTag {
			return value.Bag(a), nil
		}
		return v, nil
	}
	vals, err := d.openCounted(off, arg)
	if err != nil {
		return nil, err
	}
	shape := value.ShapeOf()
	for i := uint64(0); i < arg; i++ {
		if major == 5 { // map
			name, err := d.key()
			if err != nil {
				return nil, err
			}
			shape = shape.WithBytes(name)
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		if len(vals) == cap(vals) {
			// Double, as append would, but never past the head's count,
			// so a full container holds no spare slots.
			grown := make([]value.Value, len(vals), min(arg, uint64(max(2*cap(vals), 4))))
			copy(grown, vals)
			vals = grown
		}
		vals = append(vals, v)
	}
	d.shut()
	if major == 5 {
		return shape.New(vals), nil
	}
	return value.Array(vals), nil
}

// float16ToFloat64 decodes an IEEE-754 half-precision value.
func float16ToFloat64(h uint16) float64 {
	sign := uint64(h>>15) & 1
	exp := uint64(h>>10) & 0x1f
	frac := uint64(h) & 0x3ff
	var bits uint64
	switch exp {
	case 0:
		if frac == 0 {
			bits = sign << 63
		} else {
			// subnormal: normalize
			e := uint64(1022 - 14)
			for frac&0x400 == 0 {
				frac <<= 1
				e--
			}
			frac &= 0x3ff
			bits = sign<<63 | (e+1)<<52 | frac<<42
		}
	case 31:
		bits = sign<<63 | 0x7ff<<52 | frac<<42
	default:
		bits = sign<<63 | (exp+1023-15)<<52 | frac<<42
	}
	return math.Float64frombits(bits)
}

// EncodeCBOR encodes v as a single CBOR item. Bags carry tag 258 so they
// round-trip; MISSING is not encodable.
func EncodeCBOR(v value.Value) ([]byte, error) {
	e := cborEncoder{}
	if err := e.value(v); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// WriteCBOR encodes v as EncodeCBOR does, writing to w as it goes in
// chunks of about cborChunk bytes, and returns how many bytes w took.
// Nothing is written before the first chunk fills, so a small value that
// fails to encode leaves w untouched. The chunk buffer is pooled.
func WriteCBOR(w io.Writer, v value.Value) (int64, error) {
	buf := getCBORBuf()
	e := cborEncoder{w: w, buf: *buf}
	err := e.value(v)
	if err == nil {
		err = e.flush()
	}
	*buf = e.buf
	putCBORBuf(buf)
	return e.written, err
}

// cborChunk is the unit of streaming: the encoder's write size and the
// reader decoder's initial window.
const cborChunk = 32 << 10

// cborBufs pools the chunk buffers WriteCBOR encodes into and
// DecodeCBORFrom reads through, so a stream of shard answers reuses
// them instead of allocating two per answer.
var cborBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, cborChunk+1<<10)
	return &b
}}

func getCBORBuf() *[]byte {
	b := cborBufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putCBORBuf returns b to the pool unless it grew past four chunks (a
// long string item widens the window to hold it whole), so what the pool
// holds stays bounded whatever went through it.
func putCBORBuf(b *[]byte) {
	if cap(*b) > 4*cborChunk {
		return
	}
	cborBufs.Put(b)
}

// cborEncoder appends to buf and, when w is set, hands buf to w each time
// it passes cborChunk.
type cborEncoder struct {
	w       io.Writer
	buf     []byte
	written int64
}

func (e *cborEncoder) flush() error {
	n, err := e.w.Write(e.buf)
	e.written += int64(n)
	e.buf = e.buf[:0]
	return err
}

func (e *cborEncoder) value(v value.Value) error {
	if e.w != nil && len(e.buf) >= cborChunk {
		if err := e.flush(); err != nil {
			return err
		}
	}
	switch x := v.(type) {
	case value.Bool:
		if x {
			e.buf = append(e.buf, 0xf5)
		} else {
			e.buf = append(e.buf, 0xf4)
		}
	case value.Int:
		if x >= 0 {
			e.buf = appendCBORHead(e.buf, 0, uint64(x))
		} else {
			e.buf = appendCBORHead(e.buf, 1, uint64(-1-int64(x)))
		}
	case value.Float:
		e.buf = binary.BigEndian.AppendUint64(append(e.buf, 0xfb), math.Float64bits(float64(x)))
	case value.String:
		e.buf = append(appendCBORHead(e.buf, 3, uint64(len(x))), x...)
	case value.Bytes:
		e.buf = append(appendCBORHead(e.buf, 2, uint64(len(x))), x...)
	case value.Array:
		e.buf = appendCBORHead(e.buf, 4, uint64(len(x)))
		return e.values(x)
	case value.Bag:
		e.buf = appendCBORHead(e.buf, 6, cborBagTag)
		e.buf = appendCBORHead(e.buf, 4, uint64(len(x)))
		return e.values(x)
	case *value.Tuple:
		e.buf = appendCBORHead(e.buf, 5, uint64(x.Len()))
		vals := x.Values()
		for i, name := range x.Names() {
			e.buf = append(appendCBORHead(e.buf, 3, uint64(len(name))), name...)
			if err := e.value(vals[i]); err != nil {
				return err
			}
		}
	default:
		switch v.Kind() {
		case value.KindNull:
			e.buf = append(e.buf, 0xf6)
		case value.KindMissing:
			return fmt.Errorf("datafmt: MISSING cannot be encoded as CBOR")
		default:
			return fmt.Errorf("datafmt: cannot encode %s as CBOR", v.Kind())
		}
	}
	return nil
}

func (e *cborEncoder) values(vs []value.Value) error {
	for _, v := range vs {
		if err := e.value(v); err != nil {
			return err
		}
	}
	return nil
}

func appendCBORHead(dst []byte, major byte, arg uint64) []byte {
	mb := major << 5
	switch {
	case arg < 24:
		return append(dst, mb|byte(arg))
	case arg <= math.MaxUint8:
		return append(dst, mb|24, byte(arg))
	case arg <= math.MaxUint16:
		var buf [2]byte
		binary.BigEndian.PutUint16(buf[:], uint16(arg))
		return append(append(dst, mb|25), buf[:]...)
	case arg <= math.MaxUint32:
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(arg))
		return append(append(dst, mb|26), buf[:]...)
	default:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], arg)
		return append(append(dst, mb|27), buf[:]...)
	}
}
