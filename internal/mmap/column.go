package mmap

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"github.com/trajcover/trajcover/internal/geo"
)

// Column is the element types a snapshot or exchange column holds. Each
// is made of little-endian 4-byte words (the uint32s and int32s) or
// 8-byte words (uint64, float64, and the float64 fields of geo.Rect and
// geo.Point, whose field order is the order they are written in), so a
// column's bytes are its memory on a little-endian host.
type Column interface {
	uint64 | ~uint32 | int32 | float64 | geo.Rect | geo.Point
}

// littleEndian reports whether this host's memory is the column layout.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ZeroCopy reports whether View aliases columns in place on this host.
func ZeroCopy() bool { return littleEndian }

// View returns b as a column of len(b)/size(T) values. On a little-endian
// host it aliases b when b is aligned for T and a whole number of values,
// and is a copy otherwise (a well-formed snapshot never takes the copy,
// but a corrupt one might, and checkptr must not trip). On a big-endian
// host it is always a copy, each word reversed. A trailing remainder is
// ignored, never read out of bounds.
func View[T Column](b []byte) []T {
	if !littleEndian {
		return viewSwapped[T](b)
	}
	if s := alias[T](b); s != nil {
		return s
	}
	return copyOf[T](b)
}

// Bytes returns the column vs in the layout View reads: its memory as it
// stands on a little-endian host, a copy with each word reversed on a
// big-endian one.
func Bytes[T Column](vs []T) []byte {
	if !littleEndian {
		return bytesSwapped(vs)
	}
	return bytesOf(vs)
}

// viewSwapped and bytesSwapped are View and Bytes on a big-endian host.
// Every build compiles them, so a little-endian host tests them too.
func viewSwapped[T Column](b []byte) []T {
	s := copyOf[T](b)
	swapWords(bytesOf(s), wordOf[T]())
	return s
}

func bytesSwapped[T Column](vs []T) []byte {
	b := slices.Clone(bytesOf(vs))
	swapWords(b, wordOf[T]())
	return b
}

// swapWords reverses the bytes of each word-byte word of b in place.
func swapWords(b []byte, word int) {
	for w := 0; w+word <= len(b); w += word {
		slices.Reverse(b[w : w+word])
	}
}

// wordOf returns the width of T's words: 4 for the 4-byte integers, 8
// for every other column type.
func wordOf[T Column]() int {
	var zero T
	if unsafe.Sizeof(zero) == 4 {
		return 4
	}
	return 8
}

// alias reinterprets b as a []T when the pointer is aligned for T and
// the length is an exact multiple of T's size; nil otherwise.
func alias[T Column](b []byte) []T {
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

// copyOf returns b's first len(b)/size(T) values in a fresh []T, their
// bytes as they sit.
func copyOf[T Column](b []byte) []T {
	var zero T
	s := make([]T, uintptr(len(b))/unsafe.Sizeof(zero))
	copy(bytesOf(s), b)
	return s
}

// bytesOf views s's memory as bytes — the inverse of alias. A byte view
// has no alignment to satisfy.
func bytesOf[T Column](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero))
}
