package trajcover

// Mapped snapshot restore. OpenMappedFrozenSnapshot and
// OpenMappedLiveSnapshot map a TQSNAP04/TQSHRD03/TQLIVE02 file and alias
// the frozen column slices (node rects, upper-bound columns, bucket and
// entry slabs, the trajectory table's four columns) directly onto the
// mapping via
// internal/mmap — a restore that costs one CRC pass plus the structural
// validation, no per-point work and no column copies (on little-endian
// hosts; elsewhere the views decode into heap and everything below still
// holds). The OS pages the columns in and out on demand, so one process
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
// so an open reads each point once. One difference, deliberate: a
// container file with bytes after its last frame is rejected, where a
// stream reader stops reading and never sees them.

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

// openMapped maps the file at path and parses it with open, which gets
// the mapped bytes and the token that owns them. On an error the mapping
// is released at once; otherwise the token's finalizer releases it.
func openMapped[T any](path string, open func(data []byte, tok *mappedToken) (T, error)) (T, error) {
	m, err := mmap.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	tok := &mappedToken{m: m}
	x, err := open(m.Data(), tok)
	if err != nil {
		m.Release()
		return x, err
	}
	runtime.SetFinalizer(tok, func(t *mappedToken) { t.m.Release() })
	return x, nil
}

// openContainer runs a container parse over a whole file image and
// rejects bytes after the last frame.
func openContainer[T any](data []byte, read func(take func(n uint64) ([]byte, error)) (T, error)) (T, error) {
	c := &cursor{b: data}
	x, err := read(c.next)
	if err == nil && c.remaining() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after last frame", ErrBadSnapshot, c.remaining())
	}
	return x, err
}

// OpenMappedFrozenSnapshot restores a FrozenIndex from a TQSNAP04 or
// TQSHRD03 file by mapping it: the CRCs are verified once, every shard's
// columns alias the one mapping (zero-copy on little-endian hosts), and
// the mapping is released when the last object restored from it is
// collected. Answers are byte-identical to ReadFrozenSnapshot of the same
// file.
func OpenMappedFrozenSnapshot(path string) (*FrozenIndex, error) {
	return openMapped(path, openMappedFrozen)
}

func openMappedFrozen(data []byte, tok *mappedToken) (*FrozenIndex, error) {
	if len(data) >= 8 && string(data[:8]) == shardedFrozenMagic {
		return openContainer(data, func(take func(n uint64) ([]byte, error)) (*FrozenIndex, error) {
			return readFrozenSharded(take, tok)
		})
	}
	return parseFrozenSnapshot(data, tok)
}

// OpenMappedLiveSnapshot restores an Index from a TQLIVE02 file by
// mapping it: every shard's frozen base columns alias the mapping (the
// delta trajectories are copied to the heap), while the restored index
// stays fully mutable — writes land in heap epochs, and background
// rebuilds fold mapped trajectories into heap bases, retiring the
// mapping once nothing references it. Answers are byte-identical to
// ReadLiveSnapshot of the same file.
func OpenMappedLiveSnapshot(path string, pol LivePolicy) (*Index, error) {
	return openMapped(path, func(data []byte, tok *mappedToken) (*Index, error) {
		return openMappedLive(data, tok, pol)
	})
}

func openMappedLive(data []byte, tok *mappedToken, pol LivePolicy) (*Index, error) {
	return openContainer(data, func(take func(n uint64) ([]byte, error)) (*Index, error) {
		return readLive(take, tok, pol)
	})
}
