package service

import (
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// The raster is built only where it can pay for itself, judged from what
// init can see: enough stops that a linear scan costs more than a bit
// test, enough expected queries to amortize marking 9 cells per stop, and
// few enough cells that clearing the bitmap stays cheap (8 KB at the
// cap). Over the cap — ψ tiny against the component's extent — the set
// scans linearly.
const (
	rasterMinStops   = 4
	rasterMinQueries = 16
	rasterMaxCells   = 1 << 16
)

// unhintedRasterStops is the stop count above which a set built with no
// query-count hint (NewStopSet) is assumed to answer enough queries for
// the raster.
const unhintedRasterStops = 48

// rasterCellSlack widens the raster's cells a hair past ψ, so that two
// points within ψ of each other land at most one cell apart even after
// the cell arithmetic's rounding (which is below 2^-34 of a cell at the
// cell cap): the raster may pass a point no stop serves, never reject one
// a stop does.
const rasterCellSlack = 1 + 1.0/(1<<20)

// StopSet answers "is this point within ψ of any stop?" for a fixed stop
// set — the inner test of every exact evaluation. Most points a node's
// list offers are near no stop at all, so beside the stops the set keeps
// a bitmap over the component's EMBR in ψ-sized cells with the 3×3 block
// round every stop's cell marked: Served is a bounds check and one bit
// test, and only a point in a marked cell pays the exact scan over the
// stops (filter and refine; answers are those of the scan alone). Small
// or rarely queried sets skip the bitmap and scan. The node-level
// evaluators build one StopSet per ⟨q-node, component⟩ evaluation and
// reuse it for every surviving candidate.
type StopSet struct {
	stops []geo.Point
	psi   float64

	// Raster fields; cols is 0 in linear mode. Cell (cx, cy) is bit
	// cy*cols+cx of bits; (minX, minY) is the raster's lower-left corner,
	// a cell and a half below the stops' MBR so every stop's 3×3 block
	// lies inside.
	bits       []uint64
	cols, rows int
	minX, minY float64
	invCell    float64
}

// NewStopSet prepares a membership structure over stops for threshold
// psi. With no query-count hint the choice between scan and raster is
// made by set size alone: sets larger than unhintedRasterStops are
// assumed to answer enough queries to amortize the raster.
func NewStopSet(stops []geo.Point, psi float64) *StopSet {
	s := &StopSet{}
	expectedQueries := 0
	if len(stops) > unhintedRasterStops {
		expectedQueries = rasterMinQueries
	}
	s.init(stops, psi, expectedQueries)
	return s
}

// stopSetPool recycles StopSet structs together with their bitmaps. The
// node-level evaluators build one StopSet per ⟨q-node, component⟩ pair,
// so on the query hot path the bitmap would dominate allocation without
// pooling.
var stopSetPool = sync.Pool{New: func() any { return new(StopSet) }}

// AcquireStopSet is NewStopSet with an estimate of how many Served
// queries the set will answer, backed by a pool: the returned set reuses
// the bitmap of a previously Released set when its capacity suffices.
// Call Release when done; the set must not be used afterwards.
func AcquireStopSet(stops []geo.Point, psi float64, expectedQueries int) *StopSet {
	s := stopSetPool.Get().(*StopSet)
	s.init(stops, psi, expectedQueries)
	return s
}

// Release returns the set to the pool, dropping its reference to the
// caller's stops but keeping the bitmap for reuse.
func (s *StopSet) Release() {
	s.stops = nil
	stopSetPool.Put(s)
}

// init (re)prepares the set in place, reusing bitmap capacity if present.
func (s *StopSet) init(stops []geo.Point, psi float64, expectedQueries int) {
	s.stops, s.psi = stops, psi
	s.cols = 0
	if len(stops) < rasterMinStops || psi <= 0 || expectedQueries < rasterMinQueries {
		return
	}
	r := geo.RectOf(stops)
	cell := psi * rasterCellSlack
	s.minX, s.minY = r.MinX-1.5*cell, r.MinY-1.5*cell
	s.invCell = 1 / cell
	// The MBR corners' cells bracket every stop's. Compared as floats
	// before any conversion: the extent in cells may be astronomically
	// large, and is NaN for non-finite input.
	fx, fy := s.cell(r.MaxX, s.minX), s.cell(r.MaxY, s.minY)
	if !(s.cell(r.MinX, s.minX) >= 1 && s.cell(r.MinY, s.minY) >= 1 && fx < rasterMaxCells && fy < rasterMaxCells) {
		return
	}
	cols, rows := int(fx)+2, int(fy)+2
	if cols*rows > rasterMaxCells {
		return
	}
	s.cols, s.rows = cols, rows
	words := (cols*rows + 63) / 64
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	s.bits = s.bits[:words]
	clear(s.bits)
	for _, st := range stops {
		fx, fy := s.cell(st.X, s.minX), s.cell(st.Y, s.minY)
		if !(fx >= 1 && fy >= 1 && fx < float64(cols-1) && fy < float64(rows-1)) {
			continue // a NaN coordinate the MBR ignored: the stop serves no point
		}
		for y := int(fy) - 1; y <= int(fy)+1; y++ {
			for x := int(fx) - 1; x <= int(fx)+1; x++ {
				bit := y*cols + x
				s.bits[bit>>6] |= 1 << (bit & 63)
			}
		}
	}
}

// cell maps a coordinate to its (fractional) cell index along one axis.
func (s *StopSet) cell(v, origin float64) float64 { return (v - origin) * s.invCell }

// Served reports whether p is within ψ of any stop.
func (s *StopSet) Served(p geo.Point) bool {
	if s.cols > 0 {
		fx, fy := s.cell(p.X, s.minX), s.cell(p.Y, s.minY)
		if !(fx >= 0 && fy >= 0 && fx < float64(s.cols) && fy < float64(s.rows)) {
			return false
		}
		bit := int(fy)*s.cols + int(fx)
		if s.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return PointServed(p, s.stops, s.psi)
}

// ValueSet is Value with the stop-membership test delegated to a StopSet.
func ValueSet(sc Scenario, u *trajectory.Trajectory, ss *StopSet) float64 {
	switch sc {
	case Binary:
		if ss.Served(u.Source()) && ss.Served(u.Dest()) {
			return 1
		}
		return 0
	case PointCount:
		return ServedShare(u.Points, ss)
	case Length:
		// sl <= L, so sl != 0 means L > 0, and sl == 0 is the 0 that
		// sl / L and a zero-length trajectory both give: the length is
		// summed only for a served trajectory.
		if sl := ServedLength(u.Points, ss); sl != 0 {
			return sl / u.Length()
		}
		return 0
	}
	panic("service: invalid scenario")
}

// ServedShare is the PointCount value of a trajectory given as its
// points: the fraction of them ss serves.
func ServedShare(points []geo.Point, ss *StopSet) float64 {
	served := 0
	for _, p := range points {
		if ss.Served(p) {
			served++
		}
	}
	return float64(served) / float64(len(points))
}

// ServedLength is the Length numerator of a trajectory given as its
// points: the length of the segments whose two ends ss serves, summed
// left to right. A sum of some of the polyline length's terms in the same
// order, it never exceeds that length, so it is 0 wherever the length is.
func ServedLength(points []geo.Point, ss *StopSet) float64 {
	var sl float64
	prev := ss.Served(points[0])
	for i := 1; i < len(points); i++ {
		cur := ss.Served(points[i])
		if prev && cur {
			sl += points[i-1].Dist(points[i])
		}
		prev = cur
	}
	return sl
}
