package trajcover

// Mapped restore must be indistinguishable from the streaming readers:
// bit-identical answers and byte-identical re-snapshots. The
// loud-rejection contract for corrupt files — a truncated or flipped
// image errors at open, never faults or serves wrong values — is swept
// for both owners of the bytes in snapshot_fuzz_test.go.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/tqtree"
)

// writeTempSnapshot materializes a snapshot stream as a file for the
// mapped open paths.
func writeTempSnapshot(t testing.TB, name string, write func(w *os.File) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertMappedAnswers requires got to answer bit-identically to want
// across scenarios, for both batch service values and top-k.
func assertMappedAnswers(t *testing.T, name string, want, got flavor) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), want.Len())
	}
	ny := NewYorkCity()
	routes := BusRoutes(ny, 12, 6, 2)
	for _, sc := range []Scenario{Binary, PointCount, Length} {
		q := Query{Scenario: sc, Psi: DefaultPsi}
		wv, err := want.ServiceValues(routes, q, 2)
		if errors.Is(err, tqtree.ErrUnsupported) {
			// TwoPoint over multipoint trajectories: both must refuse.
			if _, gerr := got.ServiceValues(routes, q, 2); !errors.Is(gerr, tqtree.ErrUnsupported) {
				t.Fatalf("%s: scenario %v: %v, want %v", name, sc, gerr, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		gv, err := got.ServiceValues(routes, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s: scenario %v facility %d: value %v, want %v (bit-exact)", name, sc, i, gv[i], wv[i])
			}
		}
		wr, err := want.TopK(routes, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.TopK(routes, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		compareRanked(t, sc, wr, gr)
	}
}

// TestMappedFrozenMatchesHeap: OpenMappedFrozenSnapshot answers
// bit-identically to ReadFrozenSnapshot of the same TQSNAP04 file, and
// re-snapshotting the mapped restore reproduces the file byte for byte.
func TestMappedFrozenMatchesHeap(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := writeTempSnapshot(t, "frozen.tqsnap", func(w *os.File) error { return fz.WriteSnapshot(w) })

	mapped, err := OpenMappedFrozenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQSNAP04 mapped", fz, mapped)

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := mapped.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("mapped re-snapshot differs (%d vs %d bytes)", len(out.Bytes()), len(orig))
	}
}

// TestMappedFrozenShardedMatchesHeap: the sharded container, same
// contract.
func TestMappedFrozenShardedMatchesHeap(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	sidx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	sfz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := writeTempSnapshot(t, "frozen.tqshrd", func(w *os.File) error { return sfz.WriteSnapshot(w) })

	mapped, err := OpenMappedFrozenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.NumShards() != sfz.NumShards() {
		t.Fatalf("NumShards = %d, want %d", mapped.NumShards(), sfz.NumShards())
	}
	assertMappedAnswers(t, "TQSHRD03 mapped", sfz, mapped)

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := mapped.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("mapped re-snapshot differs (%d vs %d bytes)", len(out.Bytes()), len(orig))
	}
}

// TestMappedLiveMatchesHeapAndStaysMutable: a mapped live restore
// answers bit-identically to the streaming restore — and remains fully
// writable: inserts, deletes, and compaction (which folds the mapped
// base into a fresh heap base) all work on top of mapped columns.
func TestMappedLiveMatchesHeapAndStaysMutable(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	lv := churnedLiveIndex(t, users)
	path := writeTempSnapshot(t, "live.tqlive", func(w *os.File) error { return lv.WriteSnapshot(w) })

	heap, err := func() (*Index, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return ReadLiveSnapshot(bytes.NewReader(data), LivePolicy{Manual: true})
	}()
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQLIVE02 mapped", heap, mapped)

	// Mutate both restores identically; answers must stay identical.
	extra := TaxiTrips(ny, 80, 97)[60:]
	for _, u := range extra {
		if err := heap.Insert(u); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users[10:14] {
		if ok, err := heap.Delete(u.ID); err != nil || !ok {
			t.Fatalf("heap Delete(%d) = %v, %v", u.ID, ok, err)
		}
		if ok, err := mapped.Delete(u.ID); err != nil || !ok {
			t.Fatalf("mapped Delete(%d) = %v, %v", u.ID, ok, err)
		}
	}
	assertMappedAnswers(t, "TQLIVE02 mapped after churn", heap, mapped)

	// Compaction rebuilds heap bases from mapped trajectories; answers
	// must survive the fold.
	if err := mapped.Compact(); err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQLIVE02 mapped after compact", heap, mapped)
}

// TestMappedOpenMissingFile: opening a nonexistent path errors cleanly.
func TestMappedOpenMissingFile(t *testing.T) {
	if _, err := OpenMappedFrozenSnapshot(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

// TestMappedZeroCopyMode documents which alias mode this build runs:
// on little-endian builds the columns must alias the mapping (no copy).
func TestMappedZeroCopyMode(t *testing.T) {
	t.Logf("mmap zero-copy aliasing: %v", mmap.ZeroCopy())
}

// benchSnapshotPath builds a moderately sized frozen snapshot once per
// benchmark run.
func benchSnapshotPath(b *testing.B) string {
	b.Helper()
	ny := NewYorkCity()
	users := TaxiTrips(ny, 20000, 47)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		b.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	return writeTempSnapshot(b, "bench.tqsnap", func(w *os.File) error { return fz.WriteSnapshot(w) })
}

func BenchmarkHeapRestore(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrozenSnapshot(f); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkMappedOpen(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenMappedFrozenSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
