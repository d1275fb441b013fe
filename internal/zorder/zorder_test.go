package zorder

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/trajcover/trajcover/internal/geo"
)

// decode splits a Morton code back into its x and y components: the
// oracle for Encode.
func decode(code uint64) (x, y uint32) {
	return compactBits(code), compactBits(code >> 1)
}

// compactBits inverts spreadBits.
func compactBits(code uint64) uint32 {
	x := code & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// digit returns the quadrant digit of code at level lvl (0 is the root's
// children): the lvl-th digit of the paper's z-id.
func digit(code uint64, lvl int) int {
	return int(code >> (2 * (MaxDepth - 1 - lvl)) & 3)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= 1<<MaxDepth - 1
		y &= 1<<MaxDepth - 1
		gx, gy := decode(Encode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKnownValues(t *testing.T) {
	tests := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
	}
	for _, tt := range tests {
		if got := Encode(tt.x, tt.y); got != tt.want {
			t.Errorf("Encode(%d,%d) = %d, want %d", tt.x, tt.y, got, tt.want)
		}
	}
}

// TestPointZIDCellContainsPoint: the cell a point's z-id (its code's
// digit pairs) names contains the point, at every depth.
func TestPointZIDCellContainsPoint(t *testing.T) {
	root := geo.Rect{MinX: -100, MinY: -50, MaxX: 300, MaxY: 350}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := geo.Pt(
			root.MinX+rng.Float64()*root.Width(),
			root.MinY+rng.Float64()*root.Height(),
		)
		code := PointCode(root, p)
		cell := root
		for lvl := 0; lvl <= 12; lvl++ {
			// Allow boundary slop: the grid assigns boundary points to the
			// higher cell, matching geo.Rect.QuadrantOf.
			grow := cell.Expand(1e-9 * root.Width())
			if !grow.Contains(p) {
				t.Fatalf("depth %d cell %v does not contain %v", lvl, cell, p)
			}
			cell = cell.Quadrant(digit(code, lvl))
		}
	}
}

// TestPointZIDAgreesWithQuadrantOf: a point's z-id digits are the
// quadrants a QuadrantOf descent picks.
func TestPointZIDAgreesWithQuadrantOf(t *testing.T) {
	root := geo.Rect{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		p := geo.Pt(rng.Float64()*64, rng.Float64()*64)
		code := PointCode(root, p)
		r := root
		for lvl := 0; lvl < 3; lvl++ {
			q := r.QuadrantOf(p)
			if d := digit(code, lvl); d != q {
				// Boundary points can legitimately differ by a grid ulp;
				// accept only if p is within an ulp of the split line.
				cx := (r.MinX + r.MaxX) / 2
				cy := (r.MinY + r.MaxY) / 2
				eps := root.Width() / (1 << MaxDepth)
				nearSplit := math.Abs(p.X-cx) < eps || math.Abs(p.Y-cy) < eps
				if !nearSplit {
					t.Fatalf("digit %d = %d, QuadrantOf = %d at %v", lvl, d, q, p)
				}
			}
			r = r.Quadrant(digit(code, lvl))
		}
	}
}

func TestMortonOrderMatchesZIDOrder(t *testing.T) {
	// Sorting points by PointCode must equal sorting them by their z-ids,
	// the quadrant-digit paths of a QuadrantOf descent (exact on a dyadic
	// root), compared lexicographically.
	root := geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}
	rng := rand.New(rand.NewSource(13))
	type pz struct {
		p   geo.Point
		zid []int
	}
	pts := make([]pz, 300)
	for i := range pts {
		p := geo.Pt(rng.Float64()*1024, rng.Float64()*1024)
		zid := make([]int, MaxDepth)
		r := root
		for lvl := range zid {
			zid[lvl] = r.QuadrantOf(p)
			r = r.Quadrant(zid[lvl])
		}
		pts[i] = pz{p, zid}
	}
	byCode := append([]pz(nil), pts...)
	sort.Slice(byCode, func(i, j int) bool {
		return PointCode(root, byCode[i].p) < PointCode(root, byCode[j].p)
	})
	byZID := append([]pz(nil), pts...)
	sort.Slice(byZID, func(i, j int) bool {
		a, b := byZID[i].zid, byZID[j].zid
		for lvl := range a {
			if a[lvl] != b[lvl] {
				return a[lvl] < b[lvl]
			}
		}
		return false
	})
	for i := range byCode {
		if byCode[i].p != byZID[i].p {
			t.Fatalf("order diverges at %d: %v vs %v", i, byCode[i].p, byZID[i].p)
		}
	}
}

func TestPointCodeClampsOutside(t *testing.T) {
	root := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if PointCode(root, geo.Pt(-5, -5)) != 0 {
		t.Error("point below min did not clamp to code 0")
	}
	if PointCode(root, geo.Pt(100, 100)) != maxCode {
		t.Error("point above max did not clamp to max code")
	}
}

func TestDegenerateRootRect(t *testing.T) {
	// Zero-size root must not divide by zero; all points collapse to cell 0.
	root := geo.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}
	if PointCode(root, geo.Pt(5, 5)) != 0 {
		t.Error("degenerate root did not produce code 0")
	}
}
