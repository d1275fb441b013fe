package tenant

// Watcher reloads an overrides file when told to — at boot (Load) and on
// SIGHUP (Reload, wired by the caller) — validates the whole document,
// and only then swaps it in. An invalid new file is the load-bearing
// case: the previous configuration stays in force and the failure is
// reported loudly via the error hook — limits must never silently drop
// to unlimited because an operator fat-fingered an edit.

import (
	"fmt"
	"sync/atomic"
)

// Watcher reloads one overrides file. Construct with NewWatcher. Load
// and Reload run one at a time — the boot path, then the one SIGHUP
// loop — so the last file read is the one in force; Stats is safe from
// any goroutine.
type Watcher struct {
	path    string
	onSwap  func(*Overrides) // every loaded document, the boot Load's too
	onError func(error)      // every failed Reload; the old document stays

	reloads atomic.Uint64
	fails   atomic.Uint64
}

// NewWatcher builds a watcher over path: onSwap receives every
// successfully loaded document (the registry hook), onError every reload
// failure. Call Load before serving — a bad file at
// boot is a startup error, not a silent unlimited config.
func NewWatcher(path string, onSwap func(*Overrides), onError func(error)) *Watcher {
	return &Watcher{path: path, onSwap: onSwap, onError: onError}
}

// Stats reports successful reloads and rejected ones.
func (w *Watcher) Stats() (reloads, fails uint64) {
	return w.reloads.Load(), w.fails.Load()
}

// Load reads, validates, and swaps in the file. A failure is only
// returned — boot refuses to start on a bad initial file — where Reload
// also counts and reports it.
func (w *Watcher) Load() error {
	o, err := LoadOverridesFile(w.path)
	if err != nil {
		return err
	}
	w.reloads.Add(1)
	w.onSwap(o)
	return nil
}

// Reload re-reads the file (the SIGHUP path): a valid document is
// swapped in, an invalid one is reported via the error hook — and
// returned, for callers that log inline — while the previous
// configuration stays in force.
func (w *Watcher) Reload() error {
	if err := w.Load(); err != nil {
		err = fmt.Errorf("tenant: overrides reload: %w (keeping previous limits)", err)
		w.fails.Add(1)
		w.onError(err)
		return err
	}
	return nil
}
