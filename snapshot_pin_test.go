package trajcover

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
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
// sha is the SHA-256 of its stream, digest the contentDigest of the index
// the stream restores to. The digests were taken from the record formats
// (TQSNAP03/TQSHRD02/TQLIVE01) that the columnar trajectory section
// replaced, so they hold the new formats to the same index.
type pinnedSnapshot struct {
	name        string
	x           restored
	sha, digest string
	read        func(r io.Reader) (restored, error)
	open        func(path string) (restored, error)
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
			"58f2f8cecad07a9fe1c74e88ad96005c8314b6bbad466afbd8bfc895195291a9", "f22ae1b2768512b52edfcecb5b281cb1291813cda0bfec9814a6bb6438869174"},
		{"taxi/twopoint/basic/b8", "taxi", IndexOptions{Variant: TwoPoint, Ordering: BasicOrdering, Beta: 8},
			"513e9cb4a49aebd9ace45aa9c2df5a77510d4085cf24c319387ef8ca1820e520", "49c39289714d99d4a477ac37e8b1e95213121495ddd9e550e88a3546b1c5445c"},
		{"traces/segmented/zorder/b8", "traces", IndexOptions{Variant: Segmented, Ordering: ZOrdering, Beta: 8},
			"69dd0d050eab3b914ce7f39850e2b898945039086c76b4339792c0ce9bf04fec", "7536447251ca8f4fdd9cb9b961af43c8f624ae82f7669ec6d0b06964ccce7587"},
		{"traces/segmented/basic", "traces", IndexOptions{Variant: Segmented, Ordering: BasicOrdering},
			"a60fdc619e07cefe05831606d931f7483ca7438cc28c47a0479b7923bbd51245", "e527fe790894fafbd74480ec66d9c4442c8e8903217e21b13edf124579c0dd6d"},
		{"checkins/full/zorder/b16/d3", "checkins", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16, MaxDepth: 3},
			"bb152fff98cf00db65d31ec90ba02ec8105eb74fe814addcdbf7a15d1a6fadb1", "c3713a1e6d53e36779deee8e62a4bb317fd3888f90b7707876c89f430d1e180b"},
		{"ties/twopoint/zorder/b4", "ties", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 4, Parallelism: 4},
			"d14bc06259be77cf8d879133a00dc73d6b8199de1b0874c5358679fdbb596b73", "854b92926f1afce5c2213e9c09537912c453f799b9cde618f9e303e060aa99da"},
		{"straddle/twopoint/zorder/b8", "straddle", IndexOptions{Variant: TwoPoint, Ordering: ZOrdering, Beta: 8},
			"b3b42a41002d7119ccd67450482e9b7670777cec3432da1a4db190167c21c3fd", "ba2828cd6825efd4e9a39f59b65290d233f363d8b8190982441a7f1f5c8e19f5"},
		{"cell/full/zorder/b4/d6", "cell", IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 4, MaxDepth: 6, Bounds: Rect{MaxX: 1000, MaxY: 1000}},
			"07657e9c41718727166274d1f85bc88fa73ba0183f875a359638d0d7b94d3bf5", "bef9c13d1d7b20a60c9829d25f34488fcdd3e6e3664398d843b4821422e278aa"},
	} {
		idx, err := NewFrozenIndex(corpora[tc.corpus], tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out = append(out, pinnedSnapshot{"TQSNAP04 " + tc.name, idx, tc.sha, tc.digest,
			func(r io.Reader) (restored, error) { return ReadFrozenSnapshot(r) },
			func(path string) (restored, error) { return OpenMappedFrozenSnapshot(path) }})
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
	sfz, err := sh.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, pinnedSnapshot{"TQSHRD03 traces/segmented/zorder/b8/2 grid shards", sfz,
		"aeabe7d5b8f93e41c583bc38b72754462872145edfcd0eb70627bf0a35117c27", "1689fe6c5f7b7b336ef74b781cd73f909fec292c9e92dd53515e1eff8093d0ca",
		func(r io.Reader) (restored, error) { return ReadFrozenSnapshot(r) },
		func(path string) (restored, error) { return OpenMappedFrozenSnapshot(path) }})

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
	return append(out, pinnedSnapshot{"TQLIVE02 taxi/2 shards/compacted", lv,
		"bc120b72a0ce3e5676807fab97caee38947a9702b0488b3105160b01ccc106f6", "fd49f8a8adb04ad85ef4c94cc76cf4d4e9e0bea2c328b9c5f28dac3fcf5a3726",
		func(r io.Reader) (restored, error) { return ReadLiveSnapshot(r, pol) },
		func(path string) (restored, error) { return OpenMappedLiveSnapshot(path, pol) }})
}

// TestSnapshotBytesPinned pins the SHA-256 of a stream of every format
// over fixed-seed corpora: a change to how the base is built or written
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

// TestSnapshotContentPinned: every pinned stream restores, through its
// io.Reader entry point and its mapped open alike, to the index the
// retired record formats restored to — the same columns the base holds,
// the same table rows, the same tombstones and delta — and the index
// written is that index too.
func TestSnapshotContentPinned(t *testing.T) {
	for _, p := range pinnedSnapshots(t) {
		if got := contentDigest(t, p.x); got != p.digest {
			t.Errorf("%s: the index written has digest %s, pinned %s", p.name, got, p.digest)
		}
		path := writeTempSnapshot(t, "pinned.snap", func(w *os.File) error { return p.x.WriteSnapshot(w) })
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := p.read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: read: %v", p.name, err)
		}
		mapped, err := p.open(path)
		if err != nil {
			t.Fatalf("%s: open: %v", p.name, err)
		}
		for what, x := range map[string]restored{"read": heap, "mapped": mapped} {
			if got := contentDigest(t, x); got != p.digest {
				t.Errorf("%s: %s restore has digest %s, pinned %s", p.name, what, got, p.digest)
			}
		}
	}
}

// contentDigest hashes the index a snapshot restores to, not its bytes:
// per base (one per shard, in order) its header fields, every column it
// holds and every table row — ID, points, length bits — and per live
// shard also its tombstone IDs and delta rows. Two formats that encode
// one index give it one digest.
func contentDigest(t testing.TB, x restored) string {
	t.Helper()
	var bases []*tqtree.Frozen
	var eps []*query.Epoch
	switch x := x.(type) {
	case *FrozenIndex:
		for i := 0; i < x.s.NumShards(); i++ {
			bases = append(bases, x.s.Engine(i).Frozen())
		}
	case *Index:
		eps = x.s.Epochs()
		for _, ep := range eps {
			bases = append(bases, ep.Base().Frozen())
		}
	default:
		t.Fatalf("contentDigest: %T", x)
	}
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
	for i, f := range bases {
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
		if eps != nil {
			dead, delta := eps[i].TombstoneIDs(), eps[i].Delta()
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
