//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm

package mmap

import (
	"unsafe"

	"github.com/trajcover/trajcover/internal/geo"
)

// Little-endian architectures: the on-disk layout (little-endian scalars,
// geo structs whose field order matches serialization order) is the
// in-memory layout, so columns alias the mapping with an unsafe slice
// cast — zero copies, zero heap. A misaligned or odd-length input (which
// a well-formed snapshot never produces, but a corrupt one might) falls
// back to the decoded copy instead of tripping checkptr.

// ZeroCopy reports whether this build aliases columns in place.
func ZeroCopy() bool { return true }

// alias reinterprets b as a []T when the pointer is aligned for T and
// the length is an exact multiple of T's size; nil otherwise.
func alias[T any](b []byte) []T {
	var zero T
	size := unsafe.Sizeof(zero)
	if len(b) == 0 {
		return []T{}
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%unsafe.Alignof(zero) != 0 || uintptr(len(b))%size != 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(p)), uintptr(len(b))/size)
}

// U64s views b as little-endian uint64s (aliased when possible).
func U64s(b []byte) []uint64 {
	if s := alias[uint64](b); s != nil {
		return s
	}
	return decodeU64s(b)
}

// U32s views b as little-endian uint32s of type T.
func U32s[T ~uint32](b []byte) []T {
	if s := alias[T](b); s != nil {
		return s
	}
	return decodeU32s[T](b)
}

// I32s views b as little-endian int32s.
func I32s(b []byte) []int32 {
	if s := alias[int32](b); s != nil {
		return s
	}
	return decodeI32s(b)
}

// F64s views b as little-endian float64s.
func F64s(b []byte) []float64 {
	if s := alias[float64](b); s != nil {
		return s
	}
	return decodeF64s(b)
}

// Rects views b as geo.Rects (4 little-endian float64s each, field
// order MinX, MinY, MaxX, MaxY — the serialization order).
func Rects(b []byte) []geo.Rect {
	if s := alias[geo.Rect](b); s != nil {
		return s
	}
	return decodeRects(b)
}

// Points views b as geo.Points (2 little-endian float64s each, field
// order X, Y — the serialization order).
func Points(b []byte) []geo.Point {
	if s := alias[geo.Point](b); s != nil {
		return s
	}
	return decodePoints(b)
}

// bytesOf views s's memory as bytes — the inverse of alias, for writing
// a column out. A byte view has no alignment to satisfy.
func bytesOf[T any](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero))
}

// AppendF64s appends vals to dst in the layout F64s reads (one copy of
// their memory on this build).
func AppendF64s(dst []byte, vals []float64) []byte { return append(dst, bytesOf(vals)...) }

// AppendPoints appends pts to dst in the layout Points reads.
func AppendPoints(dst []byte, pts []geo.Point) []byte { return append(dst, bytesOf(pts)...) }
