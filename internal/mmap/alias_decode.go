//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || mipsle || mips64le || ppc64le || wasm)

package mmap

import "github.com/trajcover/trajcover/internal/geo"

// Architectures whose native layout does not match the little-endian
// on-disk format: every view is a decoded heap copy. Slower restore,
// identical results.

// ZeroCopy reports whether this build aliases columns in place.
func ZeroCopy() bool { return false }

// U64s views b as little-endian uint64s (decoded copy on this build).
func U64s(b []byte) []uint64 { return decodeU64s(b) }

// U32s views b as little-endian uint32s of type T.
func U32s[T ~uint32](b []byte) []T { return decodeU32s[T](b) }

// I32s views b as little-endian int32s.
func I32s(b []byte) []int32 { return decodeI32s(b) }

// F64s views b as little-endian float64s.
func F64s(b []byte) []float64 { return decodeF64s(b) }

// Rects views b as geo.Rects.
func Rects(b []byte) []geo.Rect { return decodeRects(b) }

// Points views b as geo.Points.
func Points(b []byte) []geo.Point { return decodePoints(b) }

// AppendF64s appends vals to dst in the layout F64s reads.
func AppendF64s(dst []byte, vals []float64) []byte { return encodeF64s(dst, vals) }

// AppendPoints appends pts to dst in the layout Points reads.
func AppendPoints(dst []byte, pts []geo.Point) []byte { return encodePoints(dst, pts) }
