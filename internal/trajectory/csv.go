package trajectory

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/trajcover/trajcover/internal/geo"
)

// Trajectory CSV format: one row per trajectory,
//
//	id,x1,y1,x2,y2,...
//
// Facilities use the same layout (id followed by stop coordinates).

// WriteCSV writes trajectories in the row-per-trajectory CSV format.
func WriteCSV(w io.Writer, ts []*Trajectory) error {
	cw := csv.NewWriter(w)
	for _, t := range ts {
		if err := cw.Write(pointRow(uint32(t.ID), t.Points)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads trajectories written by WriteCSV, as one Corpus: the
// trajectories share a header slab and an arena of points, so holding any
// one of them keeps them all reachable. Each row is validated as New
// validates it. A read costs one allocation a row (encoding/csv's string
// of the record's fields) plus a constant and at most two per 2^16
// points (an arena chunk and the header slab's growth).
func ReadCSV(r io.Reader) ([]*Trajectory, error) {
	corpus := NewCorpus(0, 0)
	if err := readRows(r, corpus.Points, corpus.Add); err != nil {
		return nil, err
	}
	return corpus.Trajectories(), nil
}

// WriteFacilitiesCSV writes facilities in the same row format.
func WriteFacilitiesCSV(w io.Writer, fs []*Facility) error {
	cw := csv.NewWriter(w)
	for _, f := range fs {
		if err := cw.Write(pointRow(uint32(f.ID), f.Stops)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFacilitiesCSV reads facilities written by WriteFacilitiesCSV.
func ReadFacilitiesCSV(r io.Reader) ([]*Facility, error) {
	var out []*Facility
	err := readRows(r, func(k int) []geo.Point { return make([]geo.Point, k) }, func(id ID, stops []geo.Point) error {
		f, err := NewFacility(id, stops)
		if err == nil {
			out = append(out, f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func pointRow(id uint32, pts []geo.Point) []string {
	row := make([]string, 0, 1+2*len(pts))
	row = append(row, strconv.FormatUint(uint64(id), 10))
	for _, p := range pts {
		row = append(row,
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64))
	}
	return row
}

// readRows reads the rows of r in order: each row's points go into the
// slice points(k) returns for its k points, and add takes its ID and
// points. A row that does not parse fails the read at once; an add
// error is reported, as "row n: err", only once every row has parsed.
func readRows(r io.Reader, points func(k int) []geo.Point, add func(id ID, pts []geo.Point) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // variable-length rows
	cr.ReuseRecord = true
	var addErr error
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return addErr
		}
		if err != nil {
			return err
		}
		if len(rec) < 3 || len(rec)%2 == 0 {
			return fmt.Errorf("trajectory: row %d has %d fields, want odd count >= 3", row, len(rec))
		}
		id64, err := strconv.ParseUint(rec[0], 10, 32)
		if err != nil {
			return fmt.Errorf("trajectory: row %d id: %w", row, err)
		}
		pts := points((len(rec) - 1) / 2)
		for i := 1; i < len(rec); i += 2 {
			x, err := strconv.ParseFloat(rec[i], 64)
			if err != nil {
				return fmt.Errorf("trajectory: row %d field %d: %w", row, i, err)
			}
			y, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return fmt.Errorf("trajectory: row %d field %d: %w", row, i+1, err)
			}
			pts[i/2] = geo.Point{X: x, Y: y}
		}
		if err := add(ID(id64), pts); err != nil && addErr == nil {
			addErr = fmt.Errorf("row %d: %w", row, err)
		}
	}
}
