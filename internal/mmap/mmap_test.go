package mmap

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
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

// TestViewsMatchDecode pins every aliased view to the explicit
// little-endian decode — on aliasing builds this proves the unsafe cast
// reads the same values the portable path does.
func TestViewsMatchDecode(t *testing.T) {
	// 8-aligned backing buffer (make of []byte is at least 8-aligned for
	// sizes >= 8 in practice; force it via a uint64 slice to be sure).
	back := make([]uint64, 16)
	b := make([]byte, 0, len(back)*8)
	vals := []uint64{0, 1, 0xdeadbeefcafef00d, math.Float64bits(3.5), ^uint64(0)}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	_ = back

	u := U64s(b)
	for i, v := range vals {
		if u[i] != v {
			t.Fatalf("U64s[%d] = %x, want %x", i, u[i], v)
		}
	}
	f := F64s(b[3*8 : 4*8])
	if f[0] != 3.5 {
		t.Fatalf("F64s = %v, want 3.5", f[0])
	}

	ib := binary.LittleEndian.AppendUint32(nil, 7)
	ib = binary.LittleEndian.AppendUint32(ib, 0xffffffff)
	i32 := I32s(ib)
	if i32[0] != 7 || i32[1] != -1 {
		t.Fatalf("I32s = %v, want [7 -1]", i32)
	}
	u32 := U32s[uint32](ib)
	if u32[0] != 7 || u32[1] != 0xffffffff {
		t.Fatalf("U32s = %v", u32)
	}

	var rb []byte
	for _, v := range []float64{1, 2, 3, 4, -1, -2, -3, -4} {
		rb = binary.LittleEndian.AppendUint64(rb, math.Float64bits(v))
	}
	rects := Rects(rb)
	want := []geo.Rect{{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, {MinX: -1, MinY: -2, MaxX: -3, MaxY: -4}}
	for i := range want {
		if rects[i] != want[i] {
			t.Fatalf("Rects[%d] = %+v, want %+v", i, rects[i], want[i])
		}
	}
	pts := Points(rb)
	if len(pts) != 4 || pts[0] != (geo.Point{X: 1, Y: 2}) || pts[3] != (geo.Point{X: -3, Y: -4}) {
		t.Fatalf("Points = %+v", pts)
	}
}

// TestMisalignedFallsBack feeds a deliberately misaligned slice and
// checks the view still decodes correctly (via the copy path) instead of
// panicking.
func TestMisalignedFallsBack(t *testing.T) {
	raw := make([]byte, 8+1)
	binary.LittleEndian.PutUint64(raw[1:], 42)
	u := U64s(raw[1:])
	if len(u) != 1 || u[0] != 42 {
		t.Fatalf("U64s misaligned = %v, want [42]", u)
	}
}

func TestEmptyViews(t *testing.T) {
	if len(U64s(nil)) != 0 || len(I32s(nil)) != 0 || len(Rects(nil)) != 0 {
		t.Fatal("empty input produced non-empty view")
	}
}

// TestAppendMatchesEncode pins the column writers to the explicit
// little-endian encode, and the views to what they wrote: a column
// appended at an odd offset (so the view takes the copy path) reads back
// bit for bit.
func TestAppendMatchesEncode(t *testing.T) {
	vals := []float64{0, -0.0, 3.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)}
	pts := []geo.Point{{X: 1, Y: -2}, {X: math.Pi, Y: 1e-300}, {X: -0.0, Y: 7}}
	for _, prefix := range [][]byte{nil, {0xAA}, make([]byte, 8)} {
		f := AppendF64s(append([]byte(nil), prefix...), vals)
		if want := encodeF64s(append([]byte(nil), prefix...), vals); !bytes.Equal(f, want) {
			t.Fatalf("AppendF64s after %d bytes = %x, want %x", len(prefix), f, want)
		}
		for i, v := range F64s(f[len(prefix):]) {
			if math.Float64bits(v) != math.Float64bits(vals[i]) {
				t.Fatalf("F64s[%d] after %d bytes = %v, want %v", i, len(prefix), v, vals[i])
			}
		}
		p := AppendPoints(append([]byte(nil), prefix...), pts)
		if want := encodePoints(append([]byte(nil), prefix...), pts); !bytes.Equal(p, want) {
			t.Fatalf("AppendPoints after %d bytes = %x, want %x", len(prefix), p, want)
		}
		for i, pt := range Points(p[len(prefix):]) {
			if math.Float64bits(pt.X) != math.Float64bits(pts[i].X) || math.Float64bits(pt.Y) != math.Float64bits(pts[i].Y) {
				t.Fatalf("Points[%d] after %d bytes = %v, want %v", i, len(prefix), pt, pts[i])
			}
		}
	}
	if got := AppendPoints([]byte{1}, nil); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("AppendPoints(nil) = %x", got)
	}
}
