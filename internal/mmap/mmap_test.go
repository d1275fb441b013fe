package mmap

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func TestOpenAndRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	want := []byte("hello, mapping")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data()) != string(want) {
		t.Fatalf("Data = %q, want %q", m.Data(), want)
	}
	if m.Refs() != 1 {
		t.Fatalf("Refs = %d, want 1", m.Refs())
	}
	m.refs.Add(1)
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if string(m.Data()) != string(want) {
		t.Fatalf("Data gone after non-final Release")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Data() != nil {
		t.Fatalf("Data survived final Release")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data()) != 0 {
		t.Fatalf("Data = %v, want empty", m.Data())
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

// column is one column of each type, reduced to bytes: its values'
// memory, encoding/binary's little- and big-endian encodings of them, and
// the codec's functions over it as bytes in and bytes out.
type column struct {
	name         string
	mem, le, be  []byte
	view         func([]byte) []byte // View's values, as their memory
	bytes        func() []byte       // Bytes of the values
	viewSwapped  func([]byte) []byte // the big-endian host's View, as memory
	bytesSwapped func([]byte) []byte // the big-endian host's Bytes of View's values
	aliased      func([]byte) bool   // whether View lays the values over b
}

func columnOf[T Column](t *testing.T, name string, vals []T) column {
	encode := func(order binary.ByteOrder) []byte {
		var buf bytes.Buffer
		if err := binary.Write(&buf, order, vals); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}
	return column{
		name: name, mem: bytesOf(vals), le: encode(binary.LittleEndian), be: encode(binary.BigEndian),
		view:         func(b []byte) []byte { return bytesOf(View[T](b)) },
		bytes:        func() []byte { return Bytes(vals) },
		viewSwapped:  func(b []byte) []byte { return bytesOf(viewSwapped[T](b)) },
		bytesSwapped: func(b []byte) []byte { return bytesSwapped(viewSwapped[T](b)) },
		aliased: func(b []byte) bool {
			v := View[T](b)
			return len(v) > 0 && unsafe.Pointer(unsafe.SliceData(v)) == unsafe.Pointer(unsafe.SliceData(b))
		},
	}
}

// columns holds the six column types, their values chosen for their
// bits: a uint32 of another name, -0.0, NaN payloads, extremes.
func columns(t *testing.T) []column {
	nan1, nan2 := math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001)
	negZero := math.Copysign(0, -1)
	return []column{
		columnOf(t, "uint64", []uint64{0, 1, 0xdeadbeefcafef00d, ^uint64(0)}),
		columnOf(t, "trajectory.ID", []trajectory.ID{0, 7, 0x01020304, math.MaxUint32}),
		columnOf(t, "int32", []int32{7, -1, math.MinInt32, math.MaxInt32}),
		columnOf(t, "float64", []float64{0, negZero, nan1, nan2, math.Inf(-1), math.SmallestNonzeroFloat64, 3.5}),
		columnOf(t, "geo.Rect", []geo.Rect{{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, {MinX: negZero, MinY: nan1, MaxX: math.MaxFloat64, MaxY: math.Inf(-1)}}),
		columnOf(t, "geo.Point", []geo.Point{{X: 1, Y: -2}, {X: negZero, Y: nan2}, {X: math.Pi, Y: 1e-300}}),
	}
}

// at copies b to byte offset off of an 8-aligned buffer and returns the
// copy.
func at(b []byte, off int) []byte {
	back := bytesOf(make([]uint64, (off+len(b))/8+1))
	return back[off : off+copy(back[off:], b) : off+len(b)]
}

// TestViewsMatchDecode pins View to encoding/binary's little-endian
// decode for every column type: aligned, it reads the values bit for bit,
// laid over the bytes where this host aliases.
func TestViewsMatchDecode(t *testing.T) {
	for _, c := range columns(t) {
		b := at(c.le, 0)
		if got := c.view(b); !bytes.Equal(got, c.mem) {
			t.Fatalf("View[%s] reads %x, want %x", c.name, got, c.mem)
		}
		if c.aliased(b) != ZeroCopy() {
			t.Fatalf("View[%s] aliased %v, ZeroCopy %v", c.name, c.aliased(b), ZeroCopy())
		}
	}
}

// TestMisalignedFallsBack feeds every column at offsets no column type
// is aligned to (and at 4, where only the 4-byte ones are): the view
// takes the copy path and reads the same values instead of panicking.
func TestMisalignedFallsBack(t *testing.T) {
	for _, c := range columns(t) {
		for _, off := range []int{1, 3, 4, 7} {
			b := at(c.le, off)
			if got := c.view(b); !bytes.Equal(got, c.mem) {
				t.Fatalf("View[%s] at offset %d reads %x, want %x", c.name, off, got, c.mem)
			}
			if c.aliased(b) && off%4 != 0 {
				t.Fatalf("View[%s] aliased bytes at offset %d", c.name, off)
			}
		}
		// A trailing remainder is not a value.
		if got := c.view(append(at(c.le, 1), 0xEE)); !bytes.Equal(got, c.mem) {
			t.Fatalf("View[%s] with a trailing byte reads %x, want %x", c.name, got, c.mem)
		}
	}
}

func TestEmptyViews(t *testing.T) {
	for _, c := range columns(t) {
		for _, b := range [][]byte{nil, {}, {1}} {
			if len(c.view(b)) != 0 || len(c.viewSwapped(b)) != 0 || len(c.bytesSwapped(b)) != 0 {
				t.Fatalf("View[%s] of %d bytes produced a value", c.name, len(b))
			}
		}
	}
	if View[geo.Rect](nil) == nil {
		t.Fatal("View of no bytes is nil, want an empty column")
	}
	if len(Bytes[float64](nil)) != 0 || len(Bytes([]geo.Point{})) != 0 {
		t.Fatal("Bytes of an empty column is not empty")
	}
}

// TestAppendMatchesEncode pins Bytes to encoding/binary's little-endian
// encode for every column type, and View to what it wrote: a column
// appended at an odd offset (so the view takes the copy path) reads back
// bit for bit.
func TestAppendMatchesEncode(t *testing.T) {
	for _, c := range columns(t) {
		if got := c.bytes(); !bytes.Equal(got, c.le) {
			t.Fatalf("Bytes[%s] = %x, want %x", c.name, got, c.le)
		}
		for _, prefix := range [][]byte{nil, {0xAA}, make([]byte, 8)} {
			b := append(append([]byte(nil), prefix...), c.bytes()...)
			if got := c.view(b[len(prefix):]); !bytes.Equal(got, c.mem) {
				t.Fatalf("View[%s] after %d bytes reads %x, want %x", c.name, len(prefix), got, c.mem)
			}
		}
	}
}

// TestBigEndianPath drives the big-endian host's View and Bytes on any
// host: reversing each word of a column's little-endian bytes must give
// encoding/binary's big-endian encoding of the same values — the memory
// a big-endian host reads them from — at every offset, and reversing it
// again the little-endian bytes Bytes must write.
func TestBigEndianPath(t *testing.T) {
	for _, c := range columns(t) {
		for _, off := range []int{0, 1, 4} {
			b := at(c.le, off)
			if got := c.viewSwapped(b); !bytes.Equal(got, c.be) {
				t.Fatalf("swapped View[%s] at offset %d = %x, want %x", c.name, off, got, c.be)
			}
			if got := c.bytesSwapped(b); !bytes.Equal(got, c.le) {
				t.Fatalf("swapped Bytes[%s] at offset %d = %x, want %x", c.name, off, got, c.le)
			}
		}
	}
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	swapWords(b, 4)
	if !bytes.Equal(b, []byte{4, 3, 2, 1, 8, 7, 6, 5, 9}) {
		t.Fatalf("swapWords by 4 = %v", b)
	}
}
