// Package zorder implements the Z-order (Morton) curve the TQ-tree sorts
// its lists by: 62-bit codes over a fixed 2^31 × 2^31 grid (PointCode),
// and the interval cover zReduce prunes a code-sorted list with
// (CoverIntervalsAuto).
//
// The paper's "0.3.2"-style z-ids are the digit pairs of these codes:
// reading a code two bits at a time from the top gives the quadrant digit
// at each level, in the geo package convention (SW=0, SE=1, NW=2, NE=3),
// i.e. digit = (yBit << 1) | xBit. Sorting by code is sorting the z-ids
// lexicographically, and a cell's points own one contiguous code range.
package zorder

import (
	"github.com/trajcover/trajcover/internal/geo"
)

// MaxDepth is the number of quadtree levels a code resolves: 31 levels at
// 2 bits per level fill 62 bits.
const MaxDepth = 31

// PointCode returns the 62-bit Morton code of p on a 2^31 × 2^31 grid over
// root. Sorting points by PointCode is sorting them in Z-order. Points
// outside root clamp to the boundary cells.
func PointCode(root geo.Rect, p geo.Point) uint64 {
	xi, yi := gridCell(root, p)
	return Encode(xi, yi)
}

// gridCell maps p to its column and row on PointCode's grid. Each
// coordinate's map is monotone, so a rectangle's corners bound the cells
// of every point inside it.
func gridCell(root geo.Rect, p geo.Point) (x, y uint32) {
	const scale = 1 << MaxDepth
	fx := 0.0
	if w := root.Width(); w > 0 {
		fx = (p.X - root.MinX) / w
	}
	fy := 0.0
	if h := root.Height(); h > 0 {
		fy = (p.Y - root.MinY) / h
	}
	return clampGrid(fx * scale), clampGrid(fy * scale)
}

func clampGrid(v float64) uint32 {
	const max = 1<<MaxDepth - 1
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return uint32(v)
}

// Encode interleaves the low 31 bits of x and y into a Morton code with y
// bits in the odd (higher) positions, so each 2-bit group from the top is
// the quadrant digit (yBit<<1 | xBit) at that level.
func Encode(x, y uint32) uint64 {
	return spreadBits(x) | spreadBits(y)<<1
}

// spreadBits inserts a zero bit above each of the low 31 bits of v.
func spreadBits(v uint32) uint64 {
	x := uint64(v) & 0x7fffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
