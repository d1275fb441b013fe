package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestInjectorNthSync(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS, 1)
	in.Add(Rule{Op: OpSync, Nth: 2})

	f, err := Create(in, filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync: want ErrInjected, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync should pass (Nth fires once): %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpWrite, Nth: 1, Fault: Fault{ShortWrite: true}})

	path := filepath.Join(dir, "a")
	f, err := Create(in, path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if n != len(payload)/2 {
		t.Fatalf("short write persisted %d bytes, want %d", n, len(payload)/2)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want ErrInjected wrapping io.ErrShortWrite, got %v", err)
	}
	f.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "01234" {
		t.Fatalf("on-disk content %q, want the torn half %q", b, "01234")
	}
}

func TestInjectorENOSPC(t *testing.T) {
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpWrite, Nth: 1, Fault: Fault{Err: ErrNoSpace}})
	f, err := Create(in, filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Write([]byte("x"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected marker, got %v", err)
	}
}

func TestInjectorPathScoping(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpCreate, Path: filepath.Join(dir, "tenant-a"), Nth: 1, Times: 100})

	if err := in.MkdirAll(filepath.Join(dir, "tenant-a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := in.MkdirAll(filepath.Join(dir, "tenant-b"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(in, filepath.Join(dir, "tenant-a", "f")); !errors.Is(err, ErrInjected) {
		t.Fatalf("tenant-a create: want ErrInjected, got %v", err)
	}
	f, err := Create(in, filepath.Join(dir, "tenant-b", "f"))
	if err != nil {
		t.Fatalf("tenant-b must be unaffected: %v", err)
	}
	f.Close()
}

func TestInjectorProbSeeded(t *testing.T) {
	// Same seed, same schedule: the set of faulted op indexes must be
	// identical across two runs.
	run := func() []uint64 {
		in := NewInjector(nil, 42)
		in.Add(Rule{Op: OpSync, Prob: 0.5})
		f, err := Create(in, filepath.Join(t.TempDir(), "a"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var faulted []uint64
		for i := uint64(0); i < 64; i++ {
			if err := f.Sync(); err != nil {
				faulted = append(faulted, i)
			}
		}
		return faulted
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("prob 0.5 over 64 ops faulted %d times; schedule degenerate", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("seeded schedules diverge: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestInjectorHeal(t *testing.T) {
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpSync, Nth: 1, Times: 1 << 30})
	f, err := Create(in, filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	in.Heal()
	if err := f.Sync(); err != nil {
		t.Fatalf("healed injector still faulting: %v", err)
	}
}

func TestInjectorLatencyOnly(t *testing.T) {
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpWrite, Nth: 1, Fault: Fault{Latency: 30 * time.Millisecond}})
	f, err := Create(in, filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("latency-only fault must not fail the op: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency not injected: write took %v", d)
	}
	if got := in.Injected(); got != 0 {
		t.Fatalf("latency-only fault counted as injected error: %d", got)
	}
}

func TestInjectorRenameAndSyncDir(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpRename, Nth: 1})
	in.Add(Rule{Op: OpSyncDir, Nth: 1})

	f, err := Create(in, filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := in.Rename(filepath.Join(dir, "tmp"), filepath.Join(dir, "final")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: want ErrInjected, got %v", err)
	}
	if err := in.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("syncdir: want ErrInjected, got %v", err)
	}
	// Both fired once; now clean.
	if err := in.Rename(filepath.Join(dir, "tmp"), filepath.Join(dir, "final")); err != nil {
		t.Fatalf("second rename should pass: %v", err)
	}
	if err := in.SyncDir(dir); err != nil {
		t.Fatalf("second syncdir should pass: %v", err)
	}
}

func TestInjectorReadDir(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, 1)
	in.Add(Rule{Op: OpReadDir, Path: "sub", Nth: 1})
	if err := in.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := in.ReadDir(dir); err != nil {
		t.Fatalf("readdir outside the rule's path: %v", err)
	}
	if _, err := in.ReadDir(filepath.Join(dir, "sub")); !errors.Is(err, ErrInjected) {
		t.Fatalf("readdir: want ErrInjected, got %v", err)
	}
	if ents, err := in.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("readdir after the fault: %v, %v; want the one entry", ents, err)
	}
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := Create(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Open(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	r.Close()
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	if _, err := OS.Stat(path); err != nil {
		t.Fatal(err)
	}
	if OrOS(nil) != OS {
		t.Fatal("OrOS(nil) != OS")
	}
}
