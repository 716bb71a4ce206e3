// Package wire holds the framing primitives of every binary encoding
// the repository persists: the store's pipeline artifacts, the graph
// and embedding-list codecs, and the cost model's models and samples.
//
// Enc appends; Dec consumes with a sticky error, so a decoder reads a
// whole record and checks once (Err or Finish). Integers are uvarints
// or zigzag varints, floats their IEEE-754 bits little endian, strings
// length-prefixed. Collection lengths that must distinguish nil from
// empty use Len (0 = nil, n+1 = present). Every count a decoder
// allocates from is guarded against the bytes that remain — each
// element takes at least one byte — so a corrupt count is an error,
// never a huge allocation. Versioning and checksums belong to the
// callers' envelopes, not here.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Enc appends an encoding to Buf.
type Enc struct{ Buf []byte }

func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Int appends v as a zigzag varint.
func (e *Enc) Int(v int) { e.Buf = binary.AppendVarint(e.Buf, int64(v)) }

func (e *Enc) Byte(v byte) { e.Buf = append(e.Buf, v) }

func (e *Enc) Float64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Enc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Len appends a collection length that records nilness: nil encodes as
// 0 and a collection of n elements as n+1, so decoders rebuild
// nil-versus-empty exactly (reflect.DeepEqual tells them apart).
func (e *Enc) Len(n int, isNil bool) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Dec consumes an encoding. The first malformed read sets a sticky
// error; every later read returns the zero value.
type Dec struct {
	data []byte
	size int
	err  error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{data: data, size: len(data)} }

// Fail records a malformed-payload error naming what was wrong, unless
// an earlier error is already recorded.
func (d *Dec) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s at byte %d", what, d.size-len(d.data))
	}
}

// Err returns the sticky error.
func (d *Dec) Err() error { return d.err }

// Finish returns the sticky error, or an error if bytes remain.
func (d *Dec) Finish() error {
	if d.err == nil && len(d.data) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.data))
	}
	return d.err
}

func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Int reads a zigzag varint.
func (d *Dec) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.Fail("truncated byte")
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

func (d *Dec) Bool() bool { return d.Byte() != 0 }

func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

func (d *Dec) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)) {
		d.Fail("truncated string")
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Count reads a plain collection length, guarded against the remaining
// bytes.
func (d *Dec) Count() int { return d.Product(d.Uvarint(), 1) }

// Len is the inverse of Enc.Len: the element count and whether the
// collection was nil, with the count guarded like Count.
func (d *Dec) Len() (n int, isNil bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	return d.Product(v-1, 1), false
}

// Product returns the element count of an a-by-b collection, failing
// when the product overflows or exceeds the remaining bytes.
func (d *Dec) Product(a, b uint64) int {
	hi, n := bits.Mul64(a, b)
	if d.err != nil {
		return 0
	}
	if hi != 0 || n > uint64(len(d.data)) {
		d.Fail("count exceeds payload")
		return 0
	}
	return int(n)
}
