package trajcover

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"os"
	"reflect"
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

// pinnedSnapshot is one fixed-seed index whose snapshot is pinned twice:
// sha is the SHA-256 of the stream WriteSnapshot writes, digest the
// contentDigest of the index the stream restores to (pending: with its
// shards' tombstones and delta; the other indexes have none). The digests
// were taken from the record formats (TQSNAP03/TQSHRD02/TQLIVE01) that
// the columnar trajectory section replaced, and the bases of the indexes
// with nothing pending were last written in the frozen formats
// (TQSNAP04/TQSHRD03), so they hold TQLIVE02 to the same index.
type pinnedSnapshot struct {
	name        string
	x           *Index
	pending     bool
	sha, digest string
}

func pinnedSnapshots(t *testing.T) []pinnedSnapshot {
	t.Helper()
	corpora := pinCorpora()
	var out []pinnedSnapshot
	for _, tc := range []struct {
		name, corpus string
		opts         IndexOptions
		sha, digest  string
	}{
		{"taxi/twopoint/zorder", "taxi", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering},
			"8b9133ba565493988434dcb7ade1639ce6e204dec36e853eaaf113e0e08c7403", "f22ae1b2768512b52edfcecb5b281cb1291813cda0bfec9814a6bb6438869174"},
		{"taxi/twopoint/basic/b8", "taxi", IndexOptions{Variant: TwoPoint, Ordering: BasicOrdering, Beta: 8},
			"5f6b261db2a3b18f5cc7aa6e4c2b569fc1e399a1220801d2ba097a105d003103", "49c39289714d99d4a477ac37e8b1e95213121495ddd9e550e88a3546b1c5445c"},
		{"traces/segmented/zorder/b8", "traces", IndexOptions{Variant: Segmented, Ordering: ZOrdering, Beta: 8},
			"4f0abc5f5e1f0a83e6ffc846ae203557a610a703d23c62a292552dc9d127d5b3", "7536447251ca8f4fdd9cb9b961af43c8f624ae82f7669ec6d0b06964ccce7587"},
		{"traces/segmented/basic", "traces", IndexOptions{Variant: Segmented, Ordering: BasicOrdering},
			"733e1a13eddd60b36646e2dfc9cf44291e17f2f1018d631c3369fd7bb742f5c7", "e527fe790894fafbd74480ec66d9c4442c8e8903217e21b13edf124579c0dd6d"},
		{"checkins/full/zorder/b16/d3", "checkins", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16, MaxDepth: 3},
			"3a7a0fb495a3044318847ef5a654b699a13ba1f3e12786abdccda2ae722ecf57", "c3713a1e6d53e36779deee8e62a4bb317fd3888f90b7707876c89f430d1e180b"},
		{"ties/twopoint/zorder/b4", "ties", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 4, Parallelism: 4},
			"af90511988c0ca33cd5d3fc41673ffb37df5c3aeca9c2246455bfc51e68e7622", "854b92926f1afce5c2213e9c09537912c453f799b9cde618f9e303e060aa99da"},
		{"straddle/twopoint/zorder/b8", "straddle", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 8},
			"faf6a54cbda2f8301ed46fc4b0700c32453e93eba0d4f6d11030f1705cc8dfc5", "ba2828cd6825efd4e9a39f59b65290d233f363d8b8190982441a7f1f5c8e19f5"},
		{"cell/full/zorder/b4/d6", "cell", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 4, MaxDepth: 6, Bounds: Rect{MaxX: 1000, MaxY: 1000}},
			"bc401475917b09aac0a83fd5d8955c6bc14b834082b4b261e6c26ece775419b2", "bef9c13d1d7b20a60c9829d25f34488fcdd3e6e3664398d843b4821422e278aa"},
	} {
		idx, err := NewIndex(corpora[tc.corpus], tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out = append(out, pinnedSnapshot{"TQLIVE02 " + tc.name, idx, false, tc.sha, tc.digest})
	}

	sh, err := NewIndex(corpora["traces"], IndexOptions{
		Variant:     Segmented,
		Ordering:    ZOrdering,
		Beta:        8,
		Shards:      2,
		Partitioner: GridPartitioner(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, pinnedSnapshot{"TQLIVE02 traces/segmented/zorder/b8/2 grid shards", sh, false,
		"f462f000da4d6ee6fcbb82a891b763b7c819595570c5ab91a7d64445f61acd84", "1689fe6c5f7b7b336ef74b781cd73f909fec292c9e92dd53515e1eff8093d0ca"})

	// A live index through two compactions, with a delta and tombstones
	// pending at the checkpoint: the rebuild path writes the base too.
	users := corpora["taxi"]
	pol := LivePolicy{Manual: true}
	lv, err := NewIndex(users[:2500], IndexOptions{
		Variant:  TwoPoint,
		Ordering: ZOrdering,
		Beta:     16,
		Shards:   2,
		Policy:   pol,
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
	return append(out, pinnedSnapshot{"TQLIVE02 taxi/2 shards/compacted", lv, true,
		"bc120b72a0ce3e5676807fab97caee38947a9702b0488b3105160b01ccc106f6", "fd49f8a8adb04ad85ef4c94cc76cf4d4e9e0bea2c328b9c5f28dac3fcf5a3726"})
}

// TestSnapshotBytesPinned pins the SHA-256 of the snapshot streams of ten
// indexes over fixed-seed corpora: a change to how the base is built or written
// must not move a snapshot byte.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, p := range pinnedSnapshots(t) {
		var buf bytes.Buffer
		if err := p.x.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		checkPin(t, p.name, buf.Bytes(), p.sha)
	}
}

// TestSnapshotContentPinned: every pinned stream restores, through the
// io.Reader entry point and the mapped open alike, to the index the
// retired record formats restored to — the same columns the base holds,
// the same table rows, the same tombstones and delta — and the index
// written is that index too.
func TestSnapshotContentPinned(t *testing.T) {
	for _, p := range pinnedSnapshots(t) {
		if got := contentDigest(t, p.x, p.pending); got != p.digest {
			t.Errorf("%s: the index written has digest %s, pinned %s", p.name, got, p.digest)
		}
		path := writeTempSnapshot(t, "pinned.snap", func(w *os.File) error { return p.x.WriteSnapshot(w) })
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pol := LivePolicy{Manual: true}
		heap, err := ReadLiveSnapshot(bytes.NewReader(data), pol)
		if err != nil {
			t.Fatalf("%s: read: %v", p.name, err)
		}
		mapped, err := OpenMappedLiveSnapshot(path, pol)
		if err != nil {
			t.Fatalf("%s: open: %v", p.name, err)
		}
		for what, x := range map[string]*Index{"read": heap, "mapped": mapped} {
			if got := contentDigest(t, x, p.pending); got != p.digest {
				t.Errorf("%s: %s restore has digest %s, pinned %s", p.name, what, got, p.digest)
			}
		}
	}
}

// contentDigest hashes the index a snapshot restores to, not its bytes:
// per base (one per shard, in order) its header fields, every column it
// holds and every table row — ID, points, length bits — and, if pending,
// per shard also its tombstone IDs and delta rows. Two formats that
// encode one index give it one digest.
func contentDigest(t testing.TB, x *Index, pending bool) string {
	t.Helper()
	eps := x.s.Epochs()
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	row := func(id ID, pts []Point, length float64) {
		put(uint32(id))
		put(uint64(len(pts)))
		put(pts)
		put(length)
	}
	for _, ep := range eps {
		f := ep.Base()
		c := f.Columns()
		// A whole-trajectory base does not hold its endpoints: digest
		// them as the snapshot records them, from EntryEnds.
		first, last := make([]Point, f.NumEntries()), make([]Point, f.NumEntries())
		for e := range first {
			first[e], last[e] = f.EntryEnds(int32(e))
		}
		put([]int64{int64(c.Variant), int64(c.Ordering), int64(c.Beta), int64(c.MaxDepth)})
		put(c.Bounds)
		for _, col := range []any{
			c.NodeRect, c.ChildBase, c.ChildCount, c.EntryOff, c.BucketOff, c.OwnUB, c.TreeUB,
			c.BktEntryOff, c.BktMinStart, c.BktMaxStart, c.BktStartMBR, c.BktEndMBR, c.BktFullMBR,
			first, last, c.EntMBR, c.EntTraj, c.EntSeg,
		} {
			put(uint64(reflect.ValueOf(col).Len()))
			put(col)
		}
		tab := f.Table()
		put(uint64(tab.Len()))
		for r := int32(0); int(r) < tab.Len(); r++ {
			row(tab.ID(r), tab.Points(r), tab.Length(r))
		}
		if pending {
			dead, delta := ep.TombstoneIDs(), ep.Delta()
			put(uint64(len(dead)))
			put(dead)
			put(uint64(len(delta)))
			for _, u := range delta {
				row(u.ID, u.Points, u.Length())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkPin(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 %s, pinned %s (%d bytes)", name, got, want, len(b))
	}
}
