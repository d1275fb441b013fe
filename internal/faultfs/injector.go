package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected marks every fault the injector manufactures. Tests match
// it with errors.Is; production code never sees it.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrNoSpace is an injected ENOSPC: errors.Is matches both ErrInjected
// and syscall.ENOSPC, so code that special-cases a full disk sees the
// real errno.
var ErrNoSpace = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)

// Op names a filesystem operation class for rule matching.
type Op string

const (
	OpOpen     Op = "open" // OpenFile without O_CREATE
	OpCreate   Op = "create"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdirAll Op = "mkdirall"
	OpStat     Op = "stat"
	OpTruncate Op = "truncate"
	OpSyncDir  Op = "syncdir"
)

// Fault describes what happens when a rule fires.
type Fault struct {
	// Err is the error returned. Nil means ErrInjected unless the
	// fault is latency-only (Latency set, Err nil, ShortWrite false),
	// in which case the operation proceeds normally after the delay.
	Err error
	// ShortWrite makes a write persist only half its payload and then
	// fail (with Err or io.ErrShortWrite), modeling a torn write.
	ShortWrite bool
	// Latency is slept before the operation is attempted.
	Latency time.Duration
}

// latencyOnly reports whether the fault delays but does not fail.
func (f Fault) latencyOnly() bool {
	return f.Latency > 0 && f.Err == nil && !f.ShortWrite
}

func (f Fault) err() error {
	if f.Err != nil {
		return f.Err
	}
	if f.ShortWrite {
		return fmt.Errorf("%w: %w", ErrInjected, io.ErrShortWrite)
	}
	return ErrInjected
}

// Rule selects operations to fault. A zero field matches everything of
// its kind: Op "" matches any operation, Path "" any path. Exactly one
// of Nth/Prob schedules the firing: Nth fires deterministically on the
// Nth matching operation (1-based, counted per rule); Prob fires each
// matching operation independently with the given probability using
// the injector's seeded RNG. Times caps total firings (0 means once
// for Nth rules, unlimited for Prob rules).
type Rule struct {
	Op    Op
	Path  string // substring match against the operation's path
	Nth   uint64
	Prob  float64
	Times int
	Fault Fault
}

type activeRule struct {
	Rule
	seen  uint64
	fired int
}

// Injector wraps an FS and fails operations according to a scripted or
// seeded-random schedule. Safe for concurrent use.
type Injector struct {
	inner FS

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*activeRule
	injected uint64
}

var _ FS = (*Injector)(nil)

// NewInjector wraps inner (nil → OS). The seed drives probabilistic
// rules; deterministic Nth rules ignore it.
func NewInjector(inner FS, seed int64) *Injector {
	return &Injector{inner: OrOS(inner), rng: rand.New(rand.NewSource(seed))}
}

// Add installs a rule. Rules are evaluated in insertion order; the
// first one that fires wins.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	in.rules = append(in.rules, &activeRule{Rule: r})
	in.mu.Unlock()
}

// Heal drops every rule: the disk behaves normally again. The injected
// count is preserved.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.rules = nil
	in.mu.Unlock()
}

// Injected returns how many faults have fired.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// check matches one operation against the rules and returns the fault
// to apply, if any.
func (in *Injector) check(op Op, path string) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		max := r.Times
		if max == 0 && r.Nth > 0 {
			max = 1
		}
		if max > 0 && r.fired >= max {
			continue
		}
		fire := false
		if r.Nth > 0 {
			fire = r.seen >= r.Nth
		} else if r.Prob > 0 {
			fire = in.rng.Float64() < r.Prob
		}
		if !fire {
			continue
		}
		r.fired++
		if !r.Fault.latencyOnly() {
			in.injected++
		}
		return r.Fault, true
	}
	return Fault{}, false
}

// apply sleeps the fault's latency and returns the error to surface,
// or nil for latency-only faults.
func apply(f Fault) error {
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.latencyOnly() {
		return nil
	}
	return f.err()
}

func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	op := OpOpen
	if flag&syscall.O_CREAT != 0 {
		op = OpCreate
	}
	if f, ok := in.check(op, name); ok {
		if err := apply(f); err != nil {
			return nil, &fs.PathError{Op: string(op), Path: name, Err: err}
		}
	}
	inner, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inner: inner, in: in, name: name}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f, ok := in.check(OpRename, newpath); ok {
		if err := apply(f); err != nil {
			return &fs.PathError{Op: "rename", Path: newpath, Err: err}
		}
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f, ok := in.check(OpRemove, name); ok {
		if err := apply(f); err != nil {
			return &fs.PathError{Op: "remove", Path: name, Err: err}
		}
	}
	return in.inner.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if f, ok := in.check(OpMkdirAll, path); ok {
		if err := apply(f); err != nil {
			return &fs.PathError{Op: "mkdirall", Path: path, Err: err}
		}
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	return in.inner.ReadDir(name)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if f, ok := in.check(OpStat, name); ok {
		if err := apply(f); err != nil {
			return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
		}
	}
	return in.inner.Stat(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if f, ok := in.check(OpTruncate, name); ok {
		if err := apply(f); err != nil {
			return &fs.PathError{Op: "truncate", Path: name, Err: err}
		}
	}
	return in.inner.Truncate(name, size)
}

func (in *Injector) SyncDir(dir string) error {
	if f, ok := in.check(OpSyncDir, dir); ok {
		if err := apply(f); err != nil {
			return &fs.PathError{Op: "syncdir", Path: dir, Err: err}
		}
	}
	return in.inner.SyncDir(dir)
}

// injFile interposes on per-handle operations.
type injFile struct {
	inner File
	in    *Injector
	name  string
}

func (f *injFile) Name() string { return f.name }

func (f *injFile) Read(p []byte) (int, error) {
	if flt, ok := f.in.check(OpRead, f.name); ok {
		if err := apply(flt); err != nil {
			return 0, err
		}
	}
	return f.inner.Read(p)
}

func (f *injFile) Write(p []byte) (int, error) {
	if flt, ok := f.in.check(OpWrite, f.name); ok {
		if flt.Latency > 0 {
			time.Sleep(flt.Latency)
		}
		if flt.latencyOnly() {
			return f.inner.Write(p)
		}
		if flt.ShortWrite {
			n, err := f.inner.Write(p[:len(p)/2])
			if err == nil {
				err = flt.err()
			}
			return n, err
		}
		return 0, flt.err()
	}
	return f.inner.Write(p)
}

func (f *injFile) Sync() error {
	if flt, ok := f.in.check(OpSync, f.name); ok {
		if err := apply(flt); err != nil {
			return err
		}
	}
	return f.inner.Sync()
}

func (f *injFile) Close() error {
	if flt, ok := f.in.check(OpClose, f.name); ok {
		if err := apply(flt); err != nil {
			// The handle still closes: a failed close must not leak
			// the descriptor.
			f.inner.Close()
			return err
		}
	}
	return f.inner.Close()
}
