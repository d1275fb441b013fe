package mmap

import (
	"encoding/binary"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
)

// Decoded-copy views, shared by the non-little-endian builds and the
// misaligned-input fallback of the aliasing builds. Inputs must be an
// exact multiple of the element size (the snapshot cursor guarantees
// it); a trailing remainder is ignored rather than read out of bounds.

func decodeU64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func decodeU32s[T ~uint32](b []byte) []T {
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func decodeI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func decodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeRects(b []byte) []geo.Rect {
	out := make([]geo.Rect, len(b)/32)
	for i := range out {
		r := b[i*32:]
		out[i] = geo.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(r[0:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(r[8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(r[16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(r[24:])),
		}
	}
	return out
}

func decodePoints(b []byte) []geo.Point {
	out := make([]geo.Point, len(b)/16)
	for i := range out {
		p := b[i*16:]
		out[i] = geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[0:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		}
	}
	return out
}

// Encoded-copy writers: the inverse of the decoders above, used on the
// builds that cannot copy a column's memory out as it stands (and by the
// tests, as the reference the aliasing builds must match).

func encodeF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func encodePoints(dst []byte, pts []geo.Point) []byte {
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
	}
	return dst
}
