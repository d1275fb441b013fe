package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// corpusDigest is the SHA-256 of a corpus's IDs, point counts and point
// bits, in order.
func corpusDigest(ts []*trajectory.Trajectory) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint32(b[:4], uint32(t.ID))
		binary.LittleEndian.PutUint32(b[4:], uint32(len(t.Points)))
		h.Write(b[:])
		for _, p := range t.Points {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.X))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Y))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedCorpora are the generator calls TestGeneratorsPinned digests.
// The Checkins corpus holds more points than one arena chunk.
var pinnedCorpora = []struct {
	name string
	gen  func() []*trajectory.Trajectory
	want string
}{
	{"TaxiTrips/seed1", func() []*trajectory.Trajectory { return TaxiTrips(NewYork(), 5000, 1) },
		"fb204901bf8a4cb7bf96ca9961622c6c2a443c5a7c302e169259c10d8990d964"},
	{"TaxiTrips/seed7", func() []*trajectory.Trajectory { return TaxiTrips(NewYork(), 5000, 7) },
		"79725324dea729152a2f369659d6910b50e3b35aa695ae7e866b37326488acb7"},
	{"Checkins/seed1", func() []*trajectory.Trajectory { return Checkins(NewYork(), 30000, 8, 1) },
		"7bd983be26864dc660aa08dd063a45dd2995f829a40807e4c615bf72a068371f"},
	{"Checkins/seed7", func() []*trajectory.Trajectory { return Checkins(NewYork(), 2000, 3, 7) },
		"65bd92def39650f79c9abc7d2908de30820af290af699c40257af4427dce717d"},
	{"GPSTraces/seed1", func() []*trajectory.Trajectory { return GPSTraces(Beijing(), 500, 10, 60, 1) },
		"84036d96214cdd9d5b6c0ff968d25b03164c20ccdd5b67c780f47b943052210b"},
	{"GPSTraces/seed7", func() []*trajectory.Trajectory { return GPSTraces(Beijing(), 300, 2, 400, 7) },
		"a66a644f99aefdddc8d872bb70ab8ab00dc7d69804d7076ebeecd4c1cd5e6389"},
}

// TestGeneratorsPinned pins every generator's output bit for bit — IDs,
// point counts and coordinates, at two seeds — and ReadCSV's round trip
// of it through WriteCSV.
func TestGeneratorsPinned(t *testing.T) {
	for _, c := range pinnedCorpora {
		ts := c.gen()
		if got := corpusDigest(ts); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, c.want)
		}
		var buf bytes.Buffer
		if err := trajectory.WriteCSV(&buf, ts); err != nil {
			t.Fatal(err)
		}
		back, err := trajectory.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", c.name, err)
		}
		if got := corpusDigest(back); got != c.want {
			t.Errorf("%s: ReadCSV round trip digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

// TestCorpusAllocs: a corpus costs a constant number of allocations,
// plus its arena's chunks when its points are not known in advance. A
// TaxiTrips corpus knows them (two a trip), so 1,000 and 100,000 trips
// cost the same; the others may cost at most one allocation more per
// 2^16 points than a corpus of one chunk does, and ReadCSV two — a
// chunk and a grown header slab — plus the one string a row that
// encoding/csv makes of each record.
func TestCorpusAllocs(t *testing.T) {
	ny, bj := NewYork(), Beijing()
	allocs := func(f func() []*trajectory.Trajectory) (a, rows, points int) {
		a = int(testing.AllocsPerRun(2, func() {
			ts := f()
			rows, points = len(ts), 0
			for _, u := range ts {
				points += u.Len()
			}
		}))
		return a, rows, points
	}
	small, _, _ := allocs(func() []*trajectory.Trajectory { return TaxiTrips(ny, 1_000, 1) })
	large, _, _ := allocs(func() []*trajectory.Trajectory { return TaxiTrips(ny, 100_000, 1) })
	t.Logf("TaxiTrips allocations: %d at 1,000 trips, %d at 100,000", small, large)
	if small != large {
		t.Errorf("TaxiTrips allocations: %d at 1,000 trips, %d at 100,000", small, large)
	}
	csvOf := func(ts []*trajectory.Trajectory) func() []*trajectory.Trajectory {
		var buf bytes.Buffer
		if err := trajectory.WriteCSV(&buf, ts); err != nil {
			t.Fatal(err)
		}
		return func() []*trajectory.Trajectory {
			back, err := trajectory.ReadCSV(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return back
		}
	}
	for _, c := range []struct {
		name             string
		perRow, perChunk int
		small, large     func() []*trajectory.Trajectory
	}{
		{"Checkins", 0, 1,
			func() []*trajectory.Trajectory { return Checkins(ny, 1_000, 8, 1) },
			func() []*trajectory.Trajectory { return Checkins(ny, 100_000, 8, 1) }},
		{"GPSTraces", 0, 1,
			func() []*trajectory.Trajectory { return GPSTraces(bj, 100, 10, 60, 1) },
			func() []*trajectory.Trajectory { return GPSTraces(bj, 10_000, 10, 60, 1) }},
		{"ReadCSV", 1, 2,
			csvOf(TaxiTrips(ny, 1_000, 1)),
			csvOf(TaxiTrips(ny, 100_000, 1))},
		{"ReadCSV/multipoint", 1, 2,
			csvOf(Checkins(ny, 1_000, 8, 1)),
			csvOf(Checkins(ny, 100_000, 8, 1))},
	} {
		small, smallRows, _ := allocs(c.small)
		large, rows, points := allocs(c.large)
		chunks := (points + 1<<16 - 1) >> 16
		t.Logf("%s allocations: %d at %d rows, %d at %d rows and %d points (%d arena chunks)", c.name, small, smallRows, large, rows, points, chunks)
		if limit := small + c.perRow*(rows-smallRows) + c.perChunk*chunks; large > limit {
			t.Errorf("%s allocations: %d at %d rows and %d points, limit %d (%d at %d rows, %d a row, %d a chunk of 2^16 points)",
				c.name, large, rows, points, limit, small, smallRows, c.perRow, c.perChunk)
		}
	}
}

// TestCorpusPointsCapped: appending to one trajectory's points never
// writes into the next one's, in any producer's corpus.
func TestCorpusPointsCapped(t *testing.T) {
	ny := NewYork()
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, Checkins(ny, 500, 8, 2)); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := trajectory.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range map[string][]*trajectory.Trajectory{
		"TaxiTrips": TaxiTrips(ny, 500, 2),
		"Checkins":  Checkins(ny, 20_000, 8, 2), // past one arena chunk
		"GPSTraces": GPSTraces(Beijing(), 500, 10, 60, 2),
		"ReadCSV":   fromCSV,
	} {
		want := corpusDigest(ts)
		for i := range ts[:len(ts)-1] {
			next := ts[i+1].Points[0]
			grown := append(ts[i].Points, geo.Pt(-1, -1))
			if ts[i+1].Points[0] != next || &grown[0] == &ts[i].Points[0] {
				t.Fatalf("%s: appending to trajectory %d wrote into the arena", name, i)
			}
		}
		if got := corpusDigest(ts); got != want {
			t.Errorf("%s: corpus changed under appends", name)
		}
	}
}
