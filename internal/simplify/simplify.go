// Package simplify reduces raw GPS traces to representative trajectories
// using Douglas-Peucker polyline simplification. Real trajectory corpora
// like Geolife sample every few seconds, producing thousands of nearly
// collinear points per trip; the paper's BJG dataset is the simplified
// form, and this package is the preprocessing step a user needs to bring
// raw traces into the indexes.
package simplify

import (
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// DouglasPeucker returns the subsequence of pts whose deviation from the
// original polyline is at most epsilon. The first and last points are
// always kept; the result preserves point order.
func DouglasPeucker(pts []geo.Point, epsilon float64) []geo.Point {
	if len(pts) <= 2 {
		return append([]geo.Point(nil), pts...)
	}
	keep := make([]bool, len(pts))
	keep[0], keep[len(pts)-1] = true, true
	dpMark(pts, 0, len(pts)-1, epsilon, keep)
	out := make([]geo.Point, 0, len(pts)/2)
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

// dpMark marks the points to keep between endpoints lo and hi
// (exclusive), using an explicit recursion on the farthest-point split.
func dpMark(pts []geo.Point, lo, hi int, epsilon float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	far, farDist := -1, epsilon
	for i := lo + 1; i < hi; i++ {
		if d := geo.DistPointSegment(pts[i], pts[lo], pts[hi]); d > farDist {
			far, farDist = i, d
		}
	}
	if far < 0 {
		return
	}
	keep[far] = true
	dpMark(pts, lo, far, epsilon, keep)
	dpMark(pts, far, hi, epsilon, keep)
}

// Trajectory simplifies a trajectory with tolerance epsilon, keeping its
// ID. Trajectories already at two points are returned unchanged.
func Trajectory(t *trajectory.Trajectory, epsilon float64) (*trajectory.Trajectory, error) {
	if t.Len() <= 2 {
		return t, nil
	}
	return trajectory.New(t.ID, DouglasPeucker(t.Points, epsilon))
}

// Set simplifies every trajectory in ts with tolerance epsilon.
func Set(ts []*trajectory.Trajectory, epsilon float64) ([]*trajectory.Trajectory, error) {
	out := make([]*trajectory.Trajectory, len(ts))
	for i, t := range ts {
		s, err := Trajectory(t, epsilon)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
