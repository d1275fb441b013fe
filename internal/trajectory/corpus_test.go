package trajectory

import (
	"errors"
	"testing"
	"unsafe"

	"github.com/trajcover/trajcover/internal/geo"
)

// TestCorpusLayout: a corpus of unknown size keeps the order it was
// given, takes back the points of a trajectory it refuses — the next
// one's follow on without a gap — and a header slab of exactly its
// length; and Add refuses points Points did not hand out.
func TestCorpusLayout(t *testing.T) {
	c := NewCorpus(0, 0)
	add := func(id ID, pts ...geo.Point) error {
		dst := c.Points(len(pts))
		copy(dst, pts)
		return c.Add(id, dst)
	}
	if err := add(1, geo.Pt(0, 0), geo.Pt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := add(2, geo.Pt(5, 5)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("one point: %v, want ErrTooShort", err)
	}
	if err := add(3, geo.Pt(2, 2), geo.Pt(3, 3), geo.Pt(4, 4)); err != nil {
		t.Fatal(err)
	}
	ts := c.Trajectories()
	if len(ts) != 2 || cap(ts) != 2 || ts[0].ID != 1 || ts[1].ID != 3 {
		t.Fatalf("corpus %v", ts)
	}
	gap := uintptr(unsafe.Pointer(&ts[1].Points[0])) - uintptr(unsafe.Pointer(&ts[0].Points[1]))
	if ts[1].Points[0] != geo.Pt(2, 2) || gap != unsafe.Sizeof(geo.Point{}) {
		t.Errorf("trajectory 3's points start %d bytes past trajectory 1's last: the refused point was not taken back", gap)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add took points Points did not hand out")
		}
	}()
	c = NewCorpus(1, 2)
	c.Points(2)
	c.Add(4, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
}
