package trajcover

// What the columnar trajectory table promises at the public surface: an
// index keeps nothing of the slice or the trajectories it was built from,
// a served index and its snapshot cost a stated number of bytes per
// trajectory, and a hostile trajectory section is an error from every
// reader.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestConstructorsDoNotAliasInput: the constructors that take a caller's
// slice keep their own list. Deleting half of the corpus (a swap-delete
// per trajectory inside the index) and inserting more leaves the slice
// the caller passed exactly as it was, so it can be reused positionally —
// for a reference index, say.
func TestConstructorsDoNotAliasInput(t *testing.T) {
	ny := NewYorkCity()
	all := TaxiTrips(ny, 400, 23)
	users, extra := all[:300:300], all[300:]
	orig := append([]*Trajectory(nil), users...)
	unchanged := func(who string) {
		t.Helper()
		for i := range users {
			if users[i] != orig[i] {
				t.Fatalf("%s reordered the caller's slice at %d (id %d, was %d)", who, i, users[i].ID, orig[i].ID)
			}
		}
	}

	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range orig[:150] {
		if ok, err := idx.Delete(u.ID); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
		}
	}
	for _, u := range extra {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("Index")
	if idx.Len() != 250 {
		t.Fatalf("Index.Len = %d, want 250", idx.Len())
	}

	sh, err := NewIndex(users, IndexOptions{Ordering: ZOrdering, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range extra {
		if err := sh.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("Index, 3 shards")

	bl, err := NewBaseline(users, TwoPoint)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline has no write path; reorder its list in place.
	bl.set.All[0], bl.set.All[1] = bl.set.All[1], bl.set.All[0]
	unchanged("Baseline")

	// And the answers of an index built from the untouched slice equal a
	// reference built from a private copy.
	routes := BusRoutes(ny, 8, 8, 5)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	ref, err := NewIndex(orig, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.ServiceValues(routes, q, 1)
	got, _ := again.ServiceValues(routes, q, 1)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("facility %d: %v from the reused slice, %v from the copy", i, got[i], want[i])
		}
	}
}

// liveHeap is the heap that survives two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHeapPerTrajectory pins what a served index holds per
// trajectory once its input is dropped: the trajectory table's 36 bytes
// (two points and an ID) and a few bytes of node and bucket columns — no
// offset or length column (a two-point row's are derived from its
// points), no entry column (a TwoPoint entry's endpoints are its table
// row's two points), no lookup permutation (only a write builds one), no
// Trajectory object, point slice, map slot or pointer beside them. A
// mapped index holds next to nothing on the heap. The snapshot file of a
// TwoPoint base is those same columns, byte for byte, plus the endpoints
// it records. The input itself is pinned too, as a caller holds it: 72
// bytes a two-point trip.
func TestIndexHeapPerTrajectory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 50000
	ny := NewYorkCity()
	opts := IndexOptions{Ordering: ZOrdering}
	opts2 := IndexOptions{Ordering: ZOrdering, Shards: 2}
	path := t.TempDir() + "/corpus.tqlive"
	cases := []struct {
		name  string
		limit float64
		build func() (any, error)
	}{
		{"NewIndex", 43, func() (any, error) {
			return NewIndex(TaxiTrips(ny, n, 7), opts2)
		}},
		{"NewIndex, 1 shard", 43, func() (any, error) {
			return NewIndex(TaxiTrips(ny, n, 7), opts)
		}},
		{"OpenMappedLiveSnapshot", 1, func() (any, error) {
			return OpenMappedLiveSnapshot(path, LivePolicy{})
		}},
		// The input itself, as a caller holds it: a 32-byte Trajectory
		// (ID and points, no cached geometry), its two points and the
		// slice's pointer, 72 bytes.
		{"TaxiTrips (corpus held)", 80, func() (any, error) {
			return TaxiTrips(ny, n, 7), nil
		}},
	}
	for _, c := range cases {
		if c.name == "OpenMappedLiveSnapshot" {
			// The file is written here, not in build, so the index that
			// wrote it is garbage before the baseline is read.
			built, err := NewIndex(TaxiTrips(ny, n, 7), opts2)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := built.WriteSnapshot(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		before := liveHeap()
		idx, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		per := (float64(liveHeap()) - float64(before)) / n
		runtime.KeepAlive(idx)
		t.Logf("%s: %.1f heap bytes per trajectory", c.name, per)
		if per > c.limit {
			t.Errorf("%s holds %.1f heap bytes per trajectory, want <= %.0f", c.name, per, c.limit)
		}
		if one, ok := idx.(*Index); ok && one.NumShards() == 1 {
			assertTwoPointBytes(t, one)
		}
	}
}

// assertTwoPointBytes: a TwoPoint base holds no entry column and its
// table no offset or length column, so its Bytes are the node and bucket
// columns and 36 bytes a trajectory (ID, two points) while it is only
// read, 40 once a Lookup has built the by-ID permutation; and its
// TQLIVE02 file is the container around one frame, the 13-word payload
// header, those columns without the lookup permutation, the offsets and
// lengths the file still records, the endpoints (32 bytes an entry), the
// pads after the 4-byte column groups, and the frame's empty tombstone
// and delta sections.
func assertTwoPointBytes(t *testing.T, fz *Index) {
	t.Helper()
	f := fz.s.Base(0)
	c := f.Columns()
	if f.Variant() != tqtree.TwoPoint || c.EntFirst != nil || c.EntLast != nil || c.EntMBR != nil || c.EntTraj != nil || c.EntSeg != nil {
		t.Fatalf("%v base holds entry columns endpoints %v/%v, MBR %v, ordinals %v, segments %v; want none",
			f.Variant(), c.EntFirst != nil, c.EntLast != nil, c.EntMBR != nil, c.EntTraj != nil, c.EntSeg != nil)
	}
	const rect, point = 32, 16
	nodesAndBuckets := rect*(len(c.NodeRect)+len(c.BktStartMBR)+len(c.BktEndMBR)+len(c.BktFullMBR)) +
		8*(len(c.OwnUB)+len(c.TreeUB)+len(c.BktMinStart)+len(c.BktMaxStart)) +
		4*(len(c.ChildBase)+len(c.ChildCount)+len(c.EntryOff)+len(c.BucketOff)+len(c.BktEntryOff))
	tableBytes := 36 * int64(f.Table().Len())
	want := int64(nodesAndBuckets) + tableBytes
	if got := f.Bytes(); got != want || f.Table().Bytes() != tableBytes {
		t.Fatalf("TwoPoint base Bytes() = %d, want %d: %d of node and bucket columns + the table's %d (it says %d)",
			got, want, nodesAndBuckets, tableBytes, f.Table().Bytes())
	}
	if _, ok := f.Table().Lookup(f.Table().ID(0)); !ok {
		t.Fatal("Lookup misses the ID of row 0")
	}
	if got := f.Table().Bytes(); got != 40*int64(f.Table().Len()) {
		t.Fatalf("after a Lookup the TwoPoint table says %d bytes, want 40 a trajectory (%d)", got, 40*int64(f.Table().Len()))
	}
	nn, nb, nt, np := uint64(len(c.NodeRect)), uint64(len(c.BktMinStart)), uint64(f.Table().Len()), uint64(f.Table().TotalPoints())
	pads := pad8(4*(3*nn+1)) + pad8(4*(nn+nb+2)) + pad8(4*(2*nt+1))
	table := 4*nt + 4*(nt+1) + 8*nt + 16*np
	// The container: magic, shard count, kind length and "hash", header
	// CRC and pad, the frame's length, and after its payload its CRC and
	// pad. Nothing pending: a tombstone count, the delta's row and point
	// counts, and its one offset padded to 8.
	const container, pending = 8 + 8 + 8 + 8 + 8 + 8, 8 + 16 + 8
	file := container + 13*8 + 2*point*uint64(f.NumEntries()) + uint64(nodesAndBuckets) + table + pads + pending
	var buf bytes.Buffer
	if err := fz.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if uint64(buf.Len()) != file {
		t.Fatalf("TwoPoint snapshot is %d bytes, want %d: %d of container + 104 of header + 32 × %d entries + %d of node and bucket columns + %d of table columns + %d of pads + %d of empty tombstones and delta",
			buf.Len(), file, container, f.NumEntries(), nodesAndBuckets, table, pads, pending)
	}
	t.Logf("TwoPoint snapshot: %.1f bytes per trajectory", float64(buf.Len())/float64(nt))
}

// lookupBuilt reports whether a table over two-point trips holds its
// by-ID permutation: its Bytes are 36 a row without it, 40 with it.
func lookupBuilt(t *testing.T, what string, tab *trajectory.Table) bool {
	t.Helper()
	switch n := int64(tab.Len()); tab.Bytes() {
	case 36 * n:
		return false
	case 40 * n:
		return true
	}
	t.Fatalf("%s: a two-point table of %d rows says %d bytes, neither 36 nor 40 a row", what, tab.Len(), tab.Bytes())
	return false
}

// TestReadsBuildNoLookup: only a write looks a trajectory up by ID, so
// only a write builds a table's by-ID permutation. TopK, ServiceValues,
// MaxCoverage and WriteSnapshot on a two-shard Index, and the heap and
// mapped restores of its snapshot with the same reads, leave every base
// table at 36 bytes a two-point trip; the
// first Delete of an ID builds the permutation of the shard holding it.
func TestReadsBuildNoLookup(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 2000, 46)
	routes := BusRoutes(ny, 10, 6, 47)
	q := Query{Scenario: Binary, Psi: 600}
	pol := LivePolicy{Manual: true}
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering, Shards: 2, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	tables := func(x *Index) []*trajectory.Table {
		var out []*trajectory.Table
		for _, ep := range x.s.Epochs() {
			out = append(out, ep.Base().Table())
		}
		return out
	}
	// read runs every read on x, checks that none built a permutation,
	// and returns x's snapshot.
	read := func(name string, x *Index) []byte {
		t.Helper()
		if _, err := x.TopK(routes, 3, q); err != nil {
			t.Fatal(err)
		}
		if _, err := x.ServiceValues(routes, q, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := x.MaxCoverage(routes, 3, q, CoverageOptions{}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := x.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for i, tab := range tables(x) {
			if lookupBuilt(t, name, tab) {
				t.Fatalf("%s: reads built shard %d's lookup permutation", name, i)
			}
		}
		return buf.Bytes()
	}
	data := read("Index", idx)
	heap, err := ReadLiveSnapshot(bytes.NewReader(data), pol)
	if err != nil {
		t.Fatal(err)
	}
	read("ReadLiveSnapshot", heap)
	path := writeTempSnapshot(t, "idx.tqlive", func(w *os.File) error { _, err := w.Write(data); return err })
	mapped, err := OpenMappedLiveSnapshot(path, pol)
	if err != nil {
		t.Fatal(err)
	}
	read("OpenMappedLiveSnapshot", mapped)

	tabs := tables(idx)
	if ok, err := idx.Delete(tabs[1].ID(0)); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if !lookupBuilt(t, "Index", tabs[1]) {
		t.Fatal("a delete did not build its shard's lookup permutation")
	}
}

// TestConcurrentFirstDeletes: the first deletes on a two-shard Index,
// from many goroutines while another reads Stats, build each shard's
// lookup permutation once: every delete lands, and BaseBytes only ever
// reads a shard's size without the permutation or with it (run under
// -race: Bytes reads the permutation a delete is publishing).
func TestConcurrentFirstDeletes(t *testing.T) {
	users := TaxiTrips(NewYorkCity(), 4000, 48)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering, Shards: 2, Policy: LivePolicy{Manual: true}})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([][2]int64, 2) // per shard: BaseBytes without, with the permutation
	for i, ep := range idx.s.Epochs() {
		if lookupBuilt(t, "built", ep.Base().Table()) {
			t.Fatalf("shard %d holds a lookup permutation before any write", i)
		}
		b := ep.Base().Bytes()
		sizes[i] = [2]int64{b, b + 4*int64(ep.Base().Table().Len())}
	}
	stop := make(chan struct{})
	statsErr := make(chan error, 1)
	go func() {
		defer close(statsErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, st := range idx.Stats() {
				if st.BaseBytes != sizes[i][0] && st.BaseBytes != sizes[i][1] {
					statsErr <- fmt.Errorf("shard %d BaseBytes %d, want %d or %d", i, st.BaseBytes, sizes[i][0], sizes[i][1])
					return
				}
			}
		}
	}()
	const writers = 8
	var wg sync.WaitGroup
	deleted := make([]bool, len(users))
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 200; i += writers {
				deleted[i], _ = idx.Delete(users[i].ID)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-statsErr; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if !deleted[i] {
			t.Fatalf("delete of %d did not land", users[i].ID)
		}
	}
	for i, st := range idx.Stats() {
		if st.Tombstones == 0 || st.BaseBytes != sizes[i][1] {
			t.Fatalf("shard %d: %d tombstones, BaseBytes %d; want some, and %d", i, st.Tombstones, st.BaseBytes, sizes[i][1])
		}
	}
	if idx.Len() != len(users)-200 {
		t.Fatalf("Len %d after 200 deletes of %d", idx.Len(), len(users))
	}
}

// TestTableBytesMultipoint: over multipoint check-ins on a segmented
// index the table is the points, 16 bytes each, and at most 24 bytes of
// fixed columns per trajectory — however many segments index it.
func TestTableBytesMultipoint(t *testing.T) {
	users := Checkins(NewYorkCity(), 3000, 9, 31)
	points := 0
	for _, u := range users {
		points += u.Len()
	}
	fz, err := NewIndex(users, IndexOptions{Variant: Segmented, Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	tab := fz.s.Base(0).Table()
	if tab.Len() != len(users) || tab.TotalPoints() != points {
		t.Fatalf("table of %d trajectories, %d points; want %d, %d", tab.Len(), tab.TotalPoints(), len(users), points)
	}
	fixed := tab.Bytes() - 16*int64(points)
	if fixed <= 0 || fixed > 24*int64(len(users)) {
		t.Fatalf("table is %d bytes over %d points: %d fixed bytes for %d trajectories, want at most 24 each",
			tab.Bytes(), points, fixed, len(users))
	}
	if st := fz.s.Base(0).Bytes(); st <= tab.Bytes() {
		t.Fatalf("index bytes %d do not include the columns beside the table's %d", st, tab.Bytes())
	}
}

// TestSnapshotRoundTripEveryVariant: for every variant and ordering, over
// two-point and multipoint trajectories, write → read → write is
// byte-identical through the heap and mapped readers, as built and with
// writes pending, and every restore answers bit-identically to the index
// NewIndex built —
// a snapshot records the entry columns the variant holds, and the mapped
// table aliases the columns the heap table holds copies of.
func TestSnapshotRoundTripEveryVariant(t *testing.T) {
	ny := NewYorkCity()
	corpora := []struct {
		name  string
		users []*Trajectory
	}{
		{"taxi", TaxiTrips(ny, 400, 43)},
		{"checkins", Checkins(ny, 400, 7, 43)},
	}
	pol := LivePolicy{Manual: true}
	for _, corpus := range corpora {
		users := corpus.users
		for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
			for _, o := range []Ordering{BasicOrdering, ZOrdering} {
				name := corpus.name + "/" + v.String() + "/" + o.String()
				opts := IndexOptions{Variant: v, Ordering: o}
				fz, err := NewIndex(users, opts)
				if err != nil {
					t.Fatal(err)
				}
				path := writeTempSnapshot(t, "built.tqlive", func(w *os.File) error { return fz.WriteSnapshot(w) })
				orig, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				heap, err := ReadLiveSnapshot(bytes.NewReader(orig), pol)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mapped, err := OpenMappedLiveSnapshot(path, pol)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for what, x := range map[string]*Index{"heap": heap, "mapped": mapped} {
					assertMappedAnswers(t, name+" "+what+" restore", fz, x)
					var out bytes.Buffer
					if err := x.WriteSnapshot(&out); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(orig, out.Bytes()) {
						t.Fatalf("%s: %s re-snapshot differs (%d vs %d bytes)", name, what, out.Len(), len(orig))
					}
				}
				lopts := opts
				lopts.Shards, lopts.Policy = 2, pol
				lv, err := NewIndex(users[:300], lopts)
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range users[300:] {
					if err := lv.Insert(u); err != nil {
						t.Fatal(err)
					}
				}
				for _, u := range users[:9] {
					if ok, err := lv.Delete(u.ID); err != nil || !ok {
						t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
					}
				}
				assertLiveRoundTrip(t, name, lv, pol)
				// A restored built index too, once it holds a tombstone for
				// the compaction to fold.
				if ok, err := heap.Delete(users[5].ID); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", users[5].ID, ok, err)
				}
				assertLiveRoundTrip(t, name+" heap restore", heap, pol)
			}
		}
	}
}

// assertLiveRoundTrip writes lv as TQLIVE02, restores it through the heap
// and mapped readers, and requires bit-identical answers and a
// byte-identical re-snapshot from both; then a compaction of the mapped
// restore, which folds the mapped base into heap columns, must answer as
// the compacted heap restore does.
func assertLiveRoundTrip(t *testing.T, name string, lv *Index, pol LivePolicy) {
	t.Helper()
	lpath := writeTempSnapshot(t, "live.tqlive", func(w *os.File) error { return lv.WriteSnapshot(w) })
	lorig, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	lheap, err := ReadLiveSnapshot(bytes.NewReader(lorig), pol)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lmapped, err := OpenMappedLiveSnapshot(lpath, pol)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for what, x := range map[string]*Index{"heap": lheap, "mapped": lmapped} {
		assertMappedAnswers(t, name+" live "+what+" restore", lv, x)
		var out bytes.Buffer
		if err := x.WriteSnapshot(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lorig, out.Bytes()) {
			t.Fatalf("%s: live %s re-snapshot differs (%d vs %d bytes)", name, what, out.Len(), len(lorig))
		}
	}
	if st, hst := lmapped.Stats(), lheap.Stats(); !st[0].Mapped || hst[0].Mapped || st[0].BaseBytes != hst[0].BaseBytes {
		// The two bases hold the same columns, wherever they live.
		t.Fatalf("%s: mapped shard reports %+v, heap shard %+v", name, st[0], hst[0])
	}
	if err := lmapped.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := lheap.Compact(); err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, name+" after compact", lheap, lmapped)
	if st := lmapped.Stats(); st[0].Mapped || st[0].BaseBytes == 0 {
		t.Fatalf("%s: compacted shard reports Mapped %v, BaseBytes %d", name, st[0].Mapped, st[0].BaseBytes)
	}
}

// frozenPayloadLayout locates the sections of a frozen payload — or of a
// live frame, which follows one with its tombstones and delta — that a
// hostile writer would aim at.
type frozenPayloadLayout struct {
	ne, nt, np        int
	entFirst, entLast int // byte offsets of the endpoint columns
	entTraj, entSeg   int // byte offsets of a Segmented base's ordinal columns
	ids, off, lens    int // byte offsets of the trajectory section's columns
	deltaOff          int // byte offsets of a live frame's delta offsets
	deltaLens         int // and lengths
}

func layoutOf(t testing.TB, payload []byte) frozenPayloadLayout {
	t.Helper()
	u := func(at uint64) uint64 { return binary.LittleEndian.Uint64(payload[at:]) }
	nn, nb, ne, nt, np := u(8*8), u(9*8), u(10*8), u(11*8), u(12*8)
	off := uint64(13*8) + nn*32 + (3*nn+1)*4 + pad8(4*(3*nn+1)) + nn*8*2*3
	if tqtree.Ordering(u(8)) == tqtree.ZOrder {
		off += (nn+nb+2)*4 + pad8(4*(nn+nb+2)) + nb*16 + nb*96
	}
	ends := off
	off += ne * 32
	switch tqtree.Variant(u(0)) {
	case tqtree.FullTrajectory:
		off += ne * 32
	case tqtree.Segmented:
		off += ne * 8
	}
	l := frozenPayloadLayout{ne: int(ne), nt: int(nt), np: int(np),
		entFirst: int(ends), entLast: int(ends + 16*ne), entTraj: int(off - 8*ne), entSeg: int(off - 4*ne),
		ids: int(off), off: int(off + 4*nt), lens: int(off + 4*(2*nt+1) + pad8(4*(2*nt+1)))}
	if end := uint64(l.lens) + 8*nt + 16*np; end < uint64(len(payload)) {
		nd := u(end)
		delta := end + 8 + 4*nd + pad8(4*nd)
		rows := u(delta)
		l.deltaOff = int(delta + 16 + 4*rows)
		l.deltaLens = int(delta + 16 + 4*(2*rows+1) + pad8(4*(2*rows+1)))
	}
	return l
}

// hostileTrajectoryCases are single-field forgeries of a frozen payload
// of the given variant over two-point trajectories, or over multipoint
// check-ins where multipoint is set, each leaving every checksum to be
// recomputed — what a CRC cannot catch. Delta cases forge a live frame's
// delta section and exist in TQLIVE02 images only.
var hostileTrajectoryCases = []struct {
	variant           Variant
	name              string
	multipoint, delta bool
	forge             func(p []byte, l frozenPayloadLayout)
}{
	{TwoPoint, "off[0] != 0", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off, 2) }},
	{TwoPoint, "a decreasing offset", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+8, 1) }},
	{TwoPoint, "a step of 0", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+4, 0) }},
	{TwoPoint, "a step of 1", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+4, 1) }},
	{TwoPoint, "a step of 2^24+1", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+4, 1<<24+1) }},
	{TwoPoint, "a step of 2^24 in the first row", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+4, 1<<24) }},
	{TwoPoint, "off[nt] != np", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.off+4*l.nt, uint32(l.np+2)) }},
	{TwoPoint, "np past the remaining bytes", false, false, func(p []byte, l frozenPayloadLayout) {
		binary.LittleEndian.PutUint64(p[12*8:], uint64(l.np)+1<<40)
	}},
	{TwoPoint, "a duplicate id", false, false, func(p []byte, l frozenPayloadLayout) { copy(p[l.ids+4*3:l.ids+4*4], p[l.ids:l.ids+4]) }},
	{TwoPoint, "a length that disagrees with its points", false, false, func(p []byte, l frozenPayloadLayout) { p[l.lens+3] ^= 0x10 }},
	// A multipoint table keeps its recorded lengths, and the Length branch
	// serves them: both owners must compare them with the points.
	{Segmented, "a multipoint length that disagrees with its points", true, false, func(p []byte, l frozenPayloadLayout) { p[l.lens+3] ^= 0x10 }},
	{Segmented, "entTraj >= table length", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.entTraj+4*(l.ne-1), uint32(l.nt)) }},
	{Segmented, "entTraj negative", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.entTraj, math.MaxUint32) }},
	{Segmented, "entSeg >= segments", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.entSeg, 1) }},
	{Segmented, "entSeg < -1", false, false, func(p []byte, l frozenPayloadLayout) { putU32(p, l.entSeg, math.MaxUint32-1) }},
	// The endpoint columns must be the table's points, bit for bit: the
	// Binary filter and score read them where the table is not consulted.
	{TwoPoint, "an entFirst one bit off its row's first point", false, false, func(p []byte, l frozenPayloadLayout) { p[l.entFirst] ^= 1 }},
	{Segmented, "an entLast that is not its segment's end", false, false, func(p []byte, l frozenPayloadLayout) {
		copy(p[l.entLast+16*(l.ne-1):l.entLast+16*l.ne], p[l.entFirst+16*(l.ne-1):])
	}},
	{FullTrajectory, "two entries' endpoints swapped", false, false, func(p []byte, l frozenPayloadLayout) {
		for _, col := range []int{l.entFirst, l.entLast} {
			var a [16]byte
			copy(a[:], p[col:col+16])
			copy(p[col:col+16], p[col+16:col+32])
			copy(p[col+16:col+32], a[:])
		}
	}},
	{FullTrajectory, "a step of 1 in the last row", false, false, func(p []byte, l frozenPayloadLayout) {
		putU32(p, l.off+4*(l.nt-1), uint32(l.np-1))
	}},
	{FullTrajectory, "a duplicate id in the last two rows", false, false, func(p []byte, l frozenPayloadLayout) {
		copy(p[l.ids+4*(l.nt-1):l.ids+4*l.nt], p[l.ids+4*(l.nt-2):])
	}},
	// A non-finite point recorded with the length its points give and as
	// its entry's endpoint passes every other check: only NewTable's
	// finiteness test refuses it.
	{TwoPoint, "a +Inf point with its length and endpoint", false, false, func(p []byte, l frozenPayloadLayout) {
		r := l.nt - 1
		binary.LittleEndian.PutUint64(p[l.lens+8*l.nt+16*(2*r+1):], math.Float64bits(math.Inf(1)))
		binary.LittleEndian.PutUint64(p[l.lens+8*r:], math.Float64bits(math.Inf(1)))
		binary.LittleEndian.PutUint64(p[l.entLast+16*r:], math.Float64bits(math.Inf(1)))
	}},
	{TwoPoint, "a delta step of 1", false, true, func(p []byte, l frozenPayloadLayout) { putU32(p, l.deltaOff+4, 1) }},
	{TwoPoint, "a delta length that disagrees with its points", false, true, func(p []byte, l frozenPayloadLayout) {
		p[l.deltaLens+3] ^= 0x10
	}},
}

func putU32(p []byte, at int, v uint32) { binary.LittleEndian.PutUint32(p[at:], v) }

// framePayload locates frame i's payload in a snapshot image: after the
// magic, shard count, kind, header CRC and pad, each frame is its
// length, payload, CRC and pad.
func framePayload(data []byte, i int) (lo, hi int) {
	kl := int(binary.LittleEndian.Uint32(data[16:]))
	lo = 20 + kl + 4 + int(pad8(uint64(kl))) + 8
	for ; ; i-- {
		hi = lo + int(binary.LittleEndian.Uint64(data[lo-8:]))
		if i == 0 {
			return lo, hi
		}
		lo = hi + 8 + 8
	}
}

// hostileSnapshot is one forged image.
type hostileSnapshot struct {
	image, name string
	data        []byte
}

// hostileImages are the images a case is forged into: an index written
// with nothing pending, the same index with a delta pending — the only
// image a delta case is forged into — and a two-shard index, forged in
// its second frame.
var hostileImages = []struct {
	name  string
	frame int
}{{"1 shard", 0}, {"1 shard with a delta", 0}, {"2 shards", 1}}

// hostileSnapshots forges every case into each of its hostileImages of
// its variant, checksums recomputed.
func hostileSnapshots(t testing.TB) (out []hostileSnapshot) {
	t.Helper()
	ny := NewYorkCity()
	corpus := map[bool][]*Trajectory{false: TaxiTrips(ny, 34, 41), true: Checkins(ny, 34, 7, 41)}
	type image struct {
		variant    Variant
		multipoint bool
	}
	images := map[image]map[string][]byte{}
	for _, c := range hostileTrajectoryCases {
		key := image{c.variant, c.multipoint}
		if images[key] == nil {
			images[key] = hostileBaseImages(t, corpus[c.multipoint], IndexOptions{Variant: c.variant, Ordering: ZOrdering})
		}
		for _, im := range hostileImages {
			if c.delta && im.name != "1 shard with a delta" {
				continue
			}
			d := bytes.Clone(images[key][im.name])
			lo, hi := framePayload(d, im.frame)
			l := layoutOf(t, d[lo:hi])
			if c.multipoint && l.np == 2*l.nt {
				t.Fatalf("%s: the check-in base has no multipoint row", c.name)
			}
			c.forge(d[lo:hi], l)
			binary.LittleEndian.PutUint32(d[hi:], crc32.ChecksumIEEE(d[lo:hi]))
			out = append(out, hostileSnapshot{im.name, c.variant.String() + ": " + c.name, d})
		}
	}
	return out
}

// hostileBaseImages writes the hostileImages of indexes over all but the
// last four users: one shard, then with the last four inserted as its
// delta, and two shards.
func hostileBaseImages(t testing.TB, users []*Trajectory, opts IndexOptions) map[string][]byte {
	t.Helper()
	base, delta := users[:len(users)-4], users[len(users)-4:]
	opts.Policy = LivePolicy{Manual: true}
	images := map[string][]byte{}
	write := func(name string, idx *Index) {
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		images[name] = buf.Bytes()
	}
	idx, err := NewIndex(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	write("1 shard", idx)
	for _, u := range delta {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	write("1 shard with a delta", idx)
	opts.Shards = 2
	two, err := NewIndex(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	write("2 shards", two)
	return images
}

// TestSnapshotHostileTrajectorySection: a trajectory section forged
// under valid checksums — offsets that do not start at 0, decrease, step
// by fewer than 2 or more than 2^24 points, or end short of the points; a
// point count that runs off the file; one ID in two rows; a length that is
// not its points', on a two-point table that derives its lengths and on a
// multipoint one that keeps them; Segmented entries naming a row or a
// segment that does not exist; entry endpoints that are not the table's;
// a point that is not finite, recorded with the length and endpoint it
// gives; a delta section as bad as a base's — is an ErrBadSnapshot whether the
// reader copies the bytes or aliases them; neither panics or serves the
// forgery's index.
func TestSnapshotHostileTrajectorySection(t *testing.T) {
	for _, h := range hostileSnapshots(t) {
		for _, owner := range snapshotOwners {
			if _, err := parseSnapshot(h.name, h.data, owner); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s, %s: %s reader returned %v, want ErrBadSnapshot", h.image, h.name, owner, err)
			}
		}
	}
}

// TestLiveSnapshotRejectsCrossShardDeltaID: a TQLIVE02 whose second
// shard's overlay holds an ID that is live in the first shard's base is
// refused by both readers — each frame is valid in itself, so only the
// merge across shards can see it.
func TestLiveSnapshotRejectsCrossShardDeltaID(t *testing.T) {
	users := TaxiTrips(NewYorkCity(), 40, 41)
	epoch := func(base, delta []*Trajectory) *query.Epoch {
		t.Helper()
		fz, err := tqtree.BuildFrozen(base, tqtree.Options{Ordering: tqtree.ZOrder})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := query.NewEpoch(fz, delta, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	clash := trajectory.MustNew(users[5].ID, users[30].Points)
	for _, c := range []struct {
		name  string
		delta []*Trajectory
		ok    bool
	}{
		{"disjoint", []*Trajectory{users[39]}, true},
		{"delta id in another shard's base", []*Trajectory{users[39], clash}, false},
	} {
		eps := []*query.Epoch{epoch(users[:20], nil), epoch(users[20:39], c.delta)}
		var buf bytes.Buffer
		if err := writeLiveSnapshot(&buf, eps, shard.Hash{}.Kind()); err != nil {
			t.Fatal(err)
		}
		_, herr := ReadLiveSnapshot(bytes.NewReader(buf.Bytes()), LivePolicy{Manual: true})
		path := writeTempSnapshot(t, "live.tqlive", func(w *os.File) error { _, err := w.Write(buf.Bytes()); return err })
		_, merr := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
		if c.ok && (herr != nil || merr != nil) {
			t.Fatalf("%s: heap %v, mapped %v", c.name, herr, merr)
		}
		if !c.ok && (!errors.Is(herr, ErrBadSnapshot) || !errors.Is(merr, ErrBadSnapshot)) {
			t.Fatalf("%s: heap %v, mapped %v; want ErrBadSnapshot from both", c.name, herr, merr)
		}
	}
}

// TestLiveSnapshotRejectsBadTombstones: a TQLIVE02 frame whose tombstone
// list repeats an ID, or names an ID its base does not hold, is refused by
// both readers under a valid checksum — the epoch the frame describes
// cannot exist, and NewEpoch is where that is checked.
func TestLiveSnapshotRejectsBadTombstones(t *testing.T) {
	users := TaxiTrips(NewYorkCity(), 30, 41)
	fz, err := tqtree.BuildFrozen(users[:20], tqtree.Options{Ordering: tqtree.ZOrder})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := query.NewEpoch(fz, users[20:], []trajectory.ID{users[3].ID, users[7].ID}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeLiveSnapshot(&buf, []*query.Epoch{ep}, shard.Hash{}.Kind()); err != nil {
		t.Fatal(err)
	}
	var base frame // counts the frame's base payload, which the tombstones follow
	writeFrozenPayload(&base, fz)
	for _, c := range []struct {
		name  string
		forge func(dead []byte) // the tombstone section: count, then u32 IDs
		ok    bool
	}{
		{"as written", func([]byte) {}, true},
		{"repeated id", func(dead []byte) { copy(dead[12:16], dead[8:12]) }, false},
		{"id of no base trajectory", func(dead []byte) { binary.LittleEndian.PutUint32(dead[12:], uint32(users[25].ID)) }, false},
	} {
		d := bytes.Clone(buf.Bytes())
		lo, hi := framePayload(d, 0)
		c.forge(d[lo+int(base.n):])
		binary.LittleEndian.PutUint32(d[hi:], crc32.ChecksumIEEE(d[lo:hi]))
		_, herr := ReadLiveSnapshot(bytes.NewReader(d), LivePolicy{Manual: true})
		path := writeTempSnapshot(t, "live.tqlive", func(w *os.File) error { _, err := w.Write(d); return err })
		_, merr := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
		if c.ok && (herr != nil || merr != nil) {
			t.Fatalf("%s: heap %v, mapped %v", c.name, herr, merr)
		}
		if !c.ok && (!errors.Is(herr, ErrBadSnapshot) || !errors.Is(merr, ErrBadSnapshot)) {
			t.Fatalf("%s: heap %v, mapped %v; want ErrBadSnapshot from both", c.name, herr, merr)
		}
	}
}

// TestTwoPointAnswersMatchBruteForce: a two-point table derives every
// length from its points, and the PointCount and Length values served
// over it — by a built, frozen-restored, churned, heap-restored and
// mapped index, and a churned one after a compaction — are bit-identical to a
// brute-force scan of the corpus. A two-point value is 0, 1/2 or 1, so
// every sum is exact in any order.
func TestTwoPointAnswersMatchBruteForce(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 3000, 17)
	routes := BusRoutes(ny, 24, 8, 17)
	subjects := allFlavorsWith(t, users, IndexOptions{Ordering: ZOrdering}, 3)
	fz := subjects[1]
	path := writeTempSnapshot(t, "twopoint.tqlive", func(w *os.File) error { return fz.WriteSnapshot(w) })
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := ReadLiveSnapshot(bytes.NewReader(data), LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, namedFlavor{heap, "heap restore"}, namedFlavor{mapped, "mapped"})
	check := func(s namedFlavor) {
		t.Helper()
		for _, sc := range []Scenario{PointCount, Length} {
			for _, psi := range []float64{DefaultPsi, 4 * DefaultPsi} {
				want := make([]float64, len(routes))
				for i, f := range routes {
					for _, u := range users {
						want[i] += service.Value(sc, u, f.Stops, psi)
					}
				}
				if slices.Max(want) == 0 {
					t.Fatalf("%v, psi %v: no facility serves anyone", sc, psi)
				}
				got, err := s.ServiceValues(routes, Query{Scenario: sc, Psi: psi}, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %v, psi %v: facility %d serves %v, the scan %v", s.name, sc, psi, i, got[i], want[i])
					}
				}
			}
		}
	}
	for _, s := range subjects {
		check(s)
	}
	churned := subjects[5] // "Index/3 shards/churned": a delta and tombstones to fold
	if err := churned.Compact(); err != nil {
		t.Fatal(err)
	}
	check(namedFlavor{churned.Index, churned.name + ", compacted"})
}
