// Package mmap maps read-only snapshot files into memory and aliases
// typed column slices directly onto the mapping, so a frozen index can
// serve from the page cache instead of a heap restore.
//
// Two independent fallbacks keep every platform correct:
//
//   - Platforms without mmap (no unix build tag) read the whole file
//     into a heap buffer; callers see the same []byte either way.
//   - Architectures where the on-disk little-endian layout cannot be
//     aliased in place (big-endian, or a misaligned input slice) decode
//     into fresh heap slices instead of casting.
//
// Aliased slices are views into the mapping: they are valid only while
// the Mapping is retained, and writing to them faults (PROT_READ). The
// snapshot layer pins the mapping from every object that can reach an
// aliased slice and releases it from a finalizer, so a mapping never
// outlives its readers and never unmaps under one.
package mmap

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Mapping is one read-only file mapping (or, on platforms without mmap,
// a heap copy of the file). It is refcounted: Open returns it with one
// reference, Retain/Release adjust it, and the final Release unmaps.
type Mapping struct {
	data  []byte
	refs  atomic.Int64
	unmap func([]byte) error
}

// Open maps the file at path read-only. The returned Mapping holds one
// reference; the caller owns it and must Release it (directly or via a
// finalizer on whatever pins it).
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("mmap: %s: file size %d not mappable", path, size)
	}
	m := &Mapping{}
	m.refs.Store(1)
	if size == 0 {
		return m, nil
	}
	data, unmap, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("mmap: %s: %w", path, err)
	}
	m.data = data
	m.unmap = unmap
	return m, nil
}

// Data returns the mapped bytes. The slice is valid only while the
// mapping is retained.
func (m *Mapping) Data() []byte { return m.data }

// Release drops a reference; the last release unmaps. Releasing an
// already-dead mapping panics (a refcount bug, not a runtime condition).
func (m *Mapping) Release() error {
	n := m.refs.Add(-1)
	if n < 0 {
		panic("mmap: Release of dead Mapping")
	}
	if n > 0 {
		return nil
	}
	data, unmap := m.data, m.unmap
	m.data, m.unmap = nil, nil
	if unmap == nil || data == nil {
		return nil
	}
	return unmap(data)
}

// Refs reports the current reference count (for tests).
func (m *Mapping) Refs() int64 { return m.refs.Load() }
