package trajcover

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// pinCorpora are fixed-seed corpora whose snapshot bytes are pinned below:
// taxi trips, long multipoint traces, check-ins, and three shapes the
// build's partition and z-sort must handle exactly — keys drawn from a
// handful of points (the sort's tie order decides the slab), every entry
// straddling the root centre (nothing routes), and every point in one
// cell (the depth-limit leaf).
func pinCorpora() map[string][]*Trajectory {
	ny := NewYorkCity()
	rng := rand.New(rand.NewSource(41))
	ties := make([]*Trajectory, 2000)
	grid := []Point{Pt(100, 100), Pt(100, 900), Pt(900, 100), Pt(900, 900), Pt(400, 600), Pt(610, 380)}
	for i := range ties {
		ties[i] = mustTraj(ID(i), grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))])
	}
	straddle := make([]*Trajectory, 1500)
	for i := range straddle {
		d := 1 + rng.Float64()*400
		straddle[i] = mustTraj(ID(i), Pt(500-d, 500-d), Pt(500+d, 500+rng.Float64()*400))
	}
	cell := make([]*Trajectory, 700)
	for i := range cell {
		cell[i] = mustTraj(ID(i), Pt(10+rng.Float64()*1e-6, 10), Pt(10, 10+rng.Float64()*1e-6), Pt(10, 10))
	}
	return map[string][]*Trajectory{
		"taxi":     TaxiTrips(ny, 3000, 7),
		"traces":   GPSTraces(ny, 400, 5, 30, 8),
		"checkins": Checkins(ny, 2500, 4, 9),
		"ties":     ties,
		"straddle": straddle,
		"cell":     cell,
	}
}

func mustTraj(id ID, pts ...Point) *Trajectory {
	u, err := NewTrajectory(id, pts)
	if err != nil {
		panic(err)
	}
	return u
}

// TestSnapshotBytesPinned pins the SHA-256 of TQSNAP03 and TQLIVE01
// streams of fixed-seed corpora at the values the build before the
// pointer-free plan wrote: a change to how the base is built must not
// move a snapshot byte.
func TestSnapshotBytesPinned(t *testing.T) {
	corpora := pinCorpora()
	frozen := []struct {
		name, corpus string
		opts         IndexOptions
		want         string
	}{
		{"taxi/twopoint/zorder", "taxi", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering}, "7dda42ee1f500bb8abec30032a046fef6ad93d89c37046b04b3ca2121c1cb87a"},
		{"taxi/twopoint/basic/b8", "taxi", IndexOptions{Variant: TwoPoint, Ordering: BasicOrdering, Beta: 8}, "845ea2ca79e2956c4680693783f08114a25b79312911cfa25d6d6298636ff970"},
		{"traces/segmented/zorder/b8", "traces", IndexOptions{Variant: Segmented, Ordering: ZOrdering, Beta: 8}, "f7fa0f5a0bab843a2bbd9fec78d5130f745843084b3818adb490caa646747d2c"},
		{"traces/segmented/basic", "traces", IndexOptions{Variant: Segmented, Ordering: BasicOrdering}, "b3f48d6fe17abdc44a2000ff6748e8bb07b5ac3d66c07769c823b6ad4b7fc26b"},
		{"checkins/full/zorder/b16/d3", "checkins", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16, MaxDepth: 3}, "5f6245084a8a2acb6c79f7b981d2c1be7cb904a376ddba93c3c67d152699b9a0"},
		{"ties/twopoint/zorder/b4", "ties", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 4, Parallelism: 4}, "ef97a8da5293c97e5ff0712a834538475fba1aceef97e6b482863a84301708b5"},
		{"straddle/twopoint/zorder/b8", "straddle", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 8}, "07dde984d2a39ce77039fa36323f6b19c167e64a694499a9acb1eb17794bb292"},
		{"cell/full/zorder/b4/d6", "cell", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 4, MaxDepth: 6, Bounds: Rect{MaxX: 1000, MaxY: 1000}}, "d97d8a1ed22baa27c03b8f49e3dee5653b3bf28e4e63496d1c392908422f0568"},
	}
	for _, tc := range frozen {
		idx, err := NewFrozenIndex(corpora[tc.corpus], tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkPin(t, "TQSNAP03 "+tc.name, buf.Bytes(), tc.want)
	}

	// A live index through two compactions, with a delta and tombstones
	// pending at the checkpoint: the rebuild path writes the base too.
	users := corpora["taxi"]
	lv, err := NewLiveShardedIndex(users[:2500], LiveShardOptions{
		Shards: 2, Index: IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 16},
		Policy: LivePolicy{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(ins []*Trajectory, del []*Trajectory) {
		for _, u := range ins {
			if err := lv.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range del {
			if _, err := lv.Delete(u.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(users[2500:2800], users[:400])
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	step(users[2800:2900], users[400:450])
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	step(users[2900:], users[450:470])
	var buf bytes.Buffer
	if err := lv.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "TQLIVE01 taxi/2 shards/compacted", buf.Bytes(), "8f3e5edc77b7cf458f9343ff478abce6e172f81869c745da8a360cc93f75cffd")
}

func checkPin(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 %s, pinned %s (%d bytes)", name, got, want, len(b))
	}
}
