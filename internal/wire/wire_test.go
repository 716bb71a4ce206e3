package wire

import (
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := &Enc{}
	e.Uvarint(math.MaxUint64)
	e.Int(math.MinInt64)
	e.Int(-7)
	e.Byte(0xAB)
	e.Bool(true)
	e.Float64(-0.1)
	e.Str("héllo")
	e.Len(0, true)
	e.Len(0, false)
	e.Len(2, false)
	e.Byte(1)
	e.Byte(2)

	d := NewDec(e.Buf)
	got := []any{d.Uvarint(), d.Int(), d.Int(), d.Byte(), d.Bool(), d.Float64(), d.Str()}
	want := []any{uint64(math.MaxUint64), math.MinInt64, -7, byte(0xAB), true, -0.1, "héllo"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for _, w := range []struct {
		n     int
		isNil bool
	}{{0, true}, {0, false}, {2, false}} {
		if n, isNil := d.Len(); n != w.n || isNil != w.isNil {
			t.Fatalf("Len = (%d, %v), want (%d, %v)", n, isNil, w.n, w.isNil)
		}
	}
	if d.Count() != 1 {
		t.Fatal("Count of 1 with one byte left must pass the guard")
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish with one unread byte must report trailing bytes")
	}
}

func TestGuards(t *testing.T) {
	e := &Enc{}
	e.Uvarint(4) // count 4 with three bytes after it
	e.Buf = append(e.Buf, 1, 2, 3)
	d := NewDec(e.Buf)
	if n := d.Count(); n != 0 || d.Err() == nil {
		t.Fatalf("Count = %d, err %v: a count beyond the payload must fail", n, d.Err())
	}
	// The error is sticky: later reads return zero values.
	if d.Byte() != 0 || d.Finish() == nil {
		t.Fatal("read after an error must return zero and keep the error")
	}

	d = NewDec([]byte{1, 2, 3})
	if n := d.Product(1<<32, 1<<32); n != 0 || d.Err() == nil {
		t.Fatalf("Product(2^32, 2^32) = %d, err %v: the overflow must fail", n, d.Err())
	}
	d = NewDec([]byte{1, 2, 3})
	if n := d.Product(1, 3); n != 3 || d.Err() != nil {
		t.Fatalf("Product(1, 3) over 3 bytes = %d, err %v", n, d.Err())
	}

	for _, bad := range [][]byte{{}, {0x80}, {5, 'a'}} {
		d := NewDec(bad)
		d.Str()
		if d.Err() == nil {
			t.Fatalf("Str over %x decoded without error", bad)
		}
	}
	if d := NewDec([]byte{1, 2}); d.Float64() != 0 || d.Err() == nil {
		t.Fatal("truncated float decoded without error")
	}
}
