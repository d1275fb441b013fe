package trajcover

// Multi-tenant serving: a TenantRegistry maps tenant IDs to independent
// Index instances. Each durable tenant owns the subtree
// <Root>/<id>/ — its own WAL segments and checkpoint lineage — so
// tenants recover independently: one tenant's torn tail cannot block
// another's boot. Tenants spring into existence lazily on first write
// (never on a read, and never for an invalid ID), and idle tenants can
// be checkpointed, closed, and evicted LRU when MaxOpen is exceeded;
// the next access reopens them from their own directory.
//
// ID validation, per-tenant admission limits, and the overrides file
// live in internal/tenant; this file owns only the id → index mapping,
// because it is the piece that must see Index.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/trajcover/trajcover/internal/tenant"
)

// TenantDefault is the tenant requests without an explicit tenant
// belong to — the backward-compatible single-tenant world.
const TenantDefault = tenant.DefaultID

// ErrUnknownTenant rejects reads of tenants that do not exist (reads
// never create tenants; only writes do).
var ErrUnknownTenant = fmt.Errorf("trajcover: unknown tenant")

// IsBadTenantID reports whether err is a tenant-ID validation failure.
func IsBadTenantID(err error) bool { return tenant.IsBadID(err) }

// TenantRegistryOptions configures OpenTenantRegistry.
type TenantRegistryOptions struct {
	// Root is the multi-tenant WAL root; tenant id lives under
	// <Root>/<id>/. Empty Root makes every tenant purely in-memory (no
	// durability, nothing to evict to).
	Root string
	// WAL carries the per-tenant durability knobs (sync policy, segment
	// size). WAL.Dir is ignored — each tenant's directory is derived
	// from Root.
	WAL WALOptions
	// Index shapes newly created tenant indexes; its Policy tunes every
	// tenant index's background compaction, reopened ones included.
	Index IndexOptions
	// NewTenant optionally seeds a first-seen tenant's corpus (nil:
	// tenants start empty).
	NewTenant func(id string) ([]*Trajectory, error)
	// MaxOpen caps concurrently open tenant indexes (0: unlimited).
	// Past the cap, idle durable tenants — refcount zero, not bound via
	// Bind — are checkpointed, closed, and dropped LRU.
	MaxOpen int
}

// tenantEntry is one open tenant index.
type tenantEntry struct {
	id      string
	idx     *Index
	refs    int
	lastUse uint64
	// durable entries own <Root>/<id>/ and can be evicted + reopened;
	// pinned entries were Bind-ed by the caller and are never evicted.
	durable bool
	pinned  bool
}

// TenantRegistry maps tenant IDs to live indexes. Safe for concurrent
// use. Construct with OpenTenantRegistry.
type TenantRegistry struct {
	opts TenantRegistryOptions

	mu     sync.Mutex
	open   map[string]*tenantEntry
	seq    uint64
	closed bool

	created  uint64
	reopened uint64
	evicted  uint64
}

// TenantRegistryStats counts registry traffic.
type TenantRegistryStats struct {
	Open     int    `json:"open"`
	Created  uint64 `json:"created"`
	Reopened uint64 `json:"reopened"`
	Evicted  uint64 `json:"evicted"`
}

// OpenTenantRegistry builds a registry. With a Root, the directory is
// created and tenants found under it (from earlier runs) reopen lazily
// on first access.
func OpenTenantRegistry(opts TenantRegistryOptions) (*TenantRegistry, error) {
	if opts.Root != "" {
		if err := os.MkdirAll(opts.Root, 0o755); err != nil {
			return nil, err
		}
	}
	return &TenantRegistry{opts: opts, open: map[string]*tenantEntry{}}, nil
}

// Bind installs a caller-built index as tenant id (typically "default"
// built from a snapshot or synthetic corpus, possibly already opened
// with its own WAL). Bound tenants are pinned: never LRU-evicted, and
// reads of them always succeed.
func (r *TenantRegistry) Bind(id string, idx *Index) error {
	if err := tenant.ValidateID(id); err != nil {
		return err
	}
	if idx == nil {
		return fmt.Errorf("trajcover: Bind(%q): nil index", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("trajcover: registry closed")
	}
	if _, dup := r.open[id]; dup {
		return fmt.Errorf("trajcover: tenant %q already open", id)
	}
	r.seq++
	r.open[id] = &tenantEntry{id: id, idx: idx, lastUse: r.seq, pinned: true, durable: idx.wal != nil}
	return nil
}

// Acquire resolves tenant id to its index, reopening it from disk or —
// when create is true (the write path) — creating it. The returned
// release func MUST be called when the caller is done with the index;
// the refcount keeps the tenant from being evicted mid-request.
// Unknown tenants on the read path return ErrUnknownTenant; invalid IDs
// return a bad-ID error (IsBadTenantID) without touching the registry
// state or the filesystem.
func (r *TenantRegistry) Acquire(id string, create bool) (*Index, func(), error) {
	if err := tenant.ValidateID(id); err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, fmt.Errorf("trajcover: registry closed")
	}
	e := r.open[id]
	if e == nil {
		onDisk := r.opts.Root != "" && dirExists(filepath.Join(r.opts.Root, id))
		if !onDisk && !create {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		}
		idx, err := r.openTenantLocked(id)
		if err != nil {
			return nil, nil, err
		}
		e = &tenantEntry{id: id, idx: idx, durable: r.opts.Root != ""}
		r.open[id] = e
		if onDisk {
			r.reopened++
		} else {
			r.created++
		}
	}
	// Take the reference and the recency stamp BEFORE enforcing MaxOpen,
	// so the entry this very call returns can never be its own eviction
	// victim.
	e.refs++
	r.seq++
	e.lastUse = r.seq
	r.evictLocked()
	var once sync.Once
	release := func() {
		once.Do(func() {
			r.mu.Lock()
			e.refs--
			r.mu.Unlock()
		})
	}
	return e.idx, release, nil
}

// openTenantLocked opens (or creates) tenant id's index. Caller holds
// r.mu — tenant opens are serialized, which also makes create-vs-create
// races impossible.
func (r *TenantRegistry) openTenantLocked(id string) (*Index, error) {
	build := func() (*Index, error) {
		var users []*Trajectory
		if r.opts.NewTenant != nil {
			var err error
			if users, err = r.opts.NewTenant(id); err != nil {
				return nil, err
			}
		}
		return NewIndex(users, r.opts.Index)
	}
	if r.opts.Root == "" {
		return build()
	}
	w := r.opts.WAL
	w.Dir = filepath.Join(r.opts.Root, id)
	return OpenIndex(w, r.opts.Index.Policy, build)
}

// evictLocked enforces MaxOpen: while too many tenants are open, the
// least-recently-used idle durable one is checkpointed, closed, and
// dropped (to reopen from its directory on next access). Pinned or
// in-use tenants are never touched; an eviction whose checkpoint fails
// leaves the tenant open rather than risk its tail (the failed
// checkpoint also flips that tenant to degraded mode, so its own
// backoff probe — not the eviction path — owns the retry).
func (r *TenantRegistry) evictLocked() {
	if r.opts.MaxOpen <= 0 {
		return
	}
	for len(r.open) > r.opts.MaxOpen {
		var victim *tenantEntry
		for _, e := range r.open {
			if e.pinned || !e.durable || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		if err := victim.idx.Checkpoint(); err != nil {
			return
		}
		if err := victim.idx.Close(); err != nil {
			return
		}
		delete(r.open, victim.id)
		r.evicted++
	}
}

// Checkpoint checkpoints tenant id (which must exist; reads never
// create tenants, and neither does an explicit checkpoint).
func (r *TenantRegistry) Checkpoint(id string) error {
	idx, release, err := r.Acquire(id, false)
	if err != nil {
		return err
	}
	defer release()
	return idx.Checkpoint()
}

// Tenants lists every known tenant — open ones plus (for a durable
// registry) the evicted ones still on disk — sorted.
func (r *TenantRegistry) Tenants() []string {
	seen := map[string]bool{}
	r.mu.Lock()
	for id := range r.open {
		seen[id] = true
	}
	root := r.opts.Root
	r.mu.Unlock()
	if root != "" {
		if ents, err := os.ReadDir(root); err == nil {
			for _, e := range ents {
				if e.IsDir() && tenant.ValidateID(e.Name()) == nil {
					seen[e.Name()] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Degraded reports every OPEN tenant currently in degraded read-only
// mode, as id → cause. Evicted tenants have no live state to degrade
// and are deliberately not reopened by this scan (health reporting must
// never widen the working set), so a healthy registry returns an empty
// map cheaply. Degradation is per tenant: each tenant's index owns its
// own WAL directory, state machine, and recovery probe, so one
// tenant's dying disk never degrades another.
func (r *TenantRegistry) Degraded() map[string]string {
	r.mu.Lock()
	type openTenant struct {
		id  string
		idx *Index
	}
	snap := make([]openTenant, 0, len(r.open))
	for id, e := range r.open {
		snap = append(snap, openTenant{id, e.idx})
	}
	r.mu.Unlock()
	out := map[string]string{}
	for _, t := range snap {
		if h := t.idx.Health(); h.Degraded {
			out[t.id] = h.Cause
		}
	}
	return out
}

// Health reports tenant id's degraded-mode state. The tenant must be
// known; like reads, health checks never create tenants.
func (r *TenantRegistry) Health(id string) (Health, error) {
	idx, release, err := r.Acquire(id, false)
	if err != nil {
		return Health{}, err
	}
	defer release()
	return idx.Health(), nil
}

// Stats reads the registry counters.
func (r *TenantRegistry) Stats() TenantRegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return TenantRegistryStats{
		Open:     len(r.open),
		Created:  r.created,
		Reopened: r.reopened,
		Evicted:  r.evicted,
	}
}

// Close closes every open tenant index (flushing and fsyncing WAL
// tails). Further Acquires fail. Idempotent; returns the first error.
func (r *TenantRegistry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	ids := make([]string, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var first error
	for _, id := range ids {
		if err := r.open[id].idx.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
