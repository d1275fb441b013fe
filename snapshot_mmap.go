package trajcover

// Mapped snapshot restore. OpenMappedLiveSnapshot maps a TQLIVE02 file
// and aliases the frozen column slices (node rects, upper-bound columns,
// bucket and entry slabs, the trajectory table's four columns) directly
// onto the mapping with mmap.View — a restore that costs one CRC pass
// plus the structural validation, no per-point work and no column copies
// (on little-endian hosts; elsewhere View copies each column to the heap,
// its words reversed, and everything below still holds). The OS pages the columns in and out on demand, so one process
// can serve snapshots larger than RAM and restarts touch only the pages a
// query walks.
//
// Lifetime. Aliased slices are views into the mapping, so the mapping
// must outlive every object that can reach one. Each mapped file gets
// one token holding the mapping, and the restored tqtree.Frozen — the
// only object that keeps such views: its columns and its trajectory
// table's — pins the token (Frozen.SetPin); the token's finalizer
// releases the mapping when the last such Frozen is dropped. Query entry points pin their engine with
// runtime.KeepAlive so the finalizer cannot fire mid-query. Delta
// trajectories are copied to the heap at open (the overlay is small), and
// a background rebuild copies the points it keeps into a fresh heap
// table, so rebuilds retire a mapping naturally: once every shard has
// been folded and the old epochs are gone, the token becomes unreachable
// and the file is unmapped.
//
// Integrity. A mapped open runs the same parse as the io.Reader entry
// points (snapshot.go), handed the mapping and its token in place of a
// heap buffer and nobody: the CRCs are verified once at open over the raw
// bytes before any column is trusted, every cursor read is bounds-checked
// against the file length, and the counts go through the same
// plausibility and structural validation — a truncated or bit-flipped
// file is a loud ErrBadSnapshot at open, never a fault inside a query.
// Every recorded length is compared with its points, as the copy does,
// so an open reads each point once. One difference, deliberate: a file
// with bytes after its last frame is rejected, where a stream reader
// stops reading and never sees them.

import (
	"fmt"
	"runtime"

	"github.com/trajcover/trajcover/internal/mmap"
)

// mappedToken owns one reference to a file mapping on behalf of every
// index object restored from it. The finalizer releases the mapping
// when the last tqtree.Frozen pinning the token is collected.
type mappedToken struct {
	m *mmap.Mapping
}

// OpenMappedLiveSnapshot restores an Index from a TQLIVE02 file by
// mapping it: the CRCs are verified once, every shard's frozen base
// columns alias the one mapping (zero-copy on little-endian hosts; the
// delta trajectories are copied to the heap),
// while the restored index stays fully mutable — writes land in heap
// epochs, and background rebuilds fold mapped trajectories into heap
// bases, retiring the mapping once nothing references it. Answers are
// byte-identical to ReadLiveSnapshot of the same file. On an error the
// mapping is released at once; otherwise the token's finalizer releases
// it.
func OpenMappedLiveSnapshot(path string, pol LivePolicy) (*Index, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	tok := &mappedToken{m: m}
	x, err := openMappedIndex(m.Data(), tok, pol)
	if err != nil {
		m.Release()
		return nil, err
	}
	runtime.SetFinalizer(tok, func(t *mappedToken) { t.m.Release() })
	return x, nil
}

// openMappedIndex parses a whole file image frame by frame, rejecting
// bytes after the last.
func openMappedIndex(data []byte, tok *mappedToken, pol LivePolicy) (*Index, error) {
	c := &cursor{b: data}
	x, err := readContainer(c.next, tok, pol)
	if err == nil && c.remaining() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after last frame", ErrBadSnapshot, c.remaining())
	}
	return x, err
}
