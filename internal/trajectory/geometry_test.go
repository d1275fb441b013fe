package trajectory_test

import (
	"math"
	"testing"
	"unsafe"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestTrajectoryIsIDAndPoints pins the struct a corpus holds one of per
// trajectory: an ID and a slice header, 32 bytes, an exact size class.
func TestTrajectoryIsIDAndPoints(t *testing.T) {
	if got := unsafe.Sizeof(trajectory.Trajectory{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Trajectory{}) = %d, want 32", got)
	}
}

// TestGeometryIdentity: a trajectory's Length and MBR compute from its
// points, so on every row of a two-point, a check-in and a GPS-trace
// table a trajectory from New, a Table.View and a bare literal all read
// the table's length and geo.RectOf of the points, bit for bit.
func TestGeometryIdentity(t *testing.T) {
	city := datagen.NewYork()
	corpora := map[string][]*trajectory.Trajectory{
		"TaxiTrips": datagen.TaxiTrips(city, 2000, 1),
		"Checkins":  datagen.Checkins(city, 1000, 8, 2),
		"GPSTraces": datagen.GPSTraces(city, 100, 10, 60, 3),
	}
	for name, users := range corpora {
		t.Run(name, func(t *testing.T) {
			b := trajectory.NewTableBuilder(len(users), 0)
			for _, u := range users {
				b.Append(u)
			}
			tab, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if multi := name != "TaxiTrips"; tab.HasMultipoint() != multi {
				t.Fatalf("HasMultipoint = %v, want %v", tab.HasMultipoint(), multi)
			}
			var view trajectory.Trajectory
			for i := int32(0); int(i) < tab.Len(); i++ {
				pts := tab.Points(i)
				wantLen, wantMBR := tab.Length(i), geo.RectOf(pts)
				tab.View(i, &view)
				built, err := trajectory.New(tab.ID(i), users[i].Points)
				if err != nil {
					t.Fatal(err)
				}
				for kind, u := range map[string]*trajectory.Trajectory{
					"New":     built,
					"View":    &view,
					"literal": {ID: tab.ID(i), Points: pts},
				} {
					if l := u.Length(); math.Float64bits(l) != math.Float64bits(wantLen) {
						t.Fatalf("row %d %s: Length = %v, table has %v", i, kind, l, wantLen)
					}
					if !sameRect(u.MBR(), wantMBR) {
						t.Fatalf("row %d %s: MBR = %v, RectOf gives %v", i, kind, u.MBR(), wantMBR)
					}
				}
			}
		})
	}
}

func sameRect(a, b geo.Rect) bool {
	for _, p := range [][2]float64{{a.MinX, b.MinX}, {a.MinY, b.MinY}, {a.MaxX, b.MaxX}, {a.MaxY, b.MaxY}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}
