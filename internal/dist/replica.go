package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/server"
)

// PathReplStatus is the replica-only status endpoint.
const PathReplStatus = "/v1/replstatus"

// ReplicaConfig tunes a replica's follow loop.
type ReplicaConfig struct {
	// Primary is the primary tqserve's base URL.
	Primary string
	// Policy tunes the restored index's compaction.
	Policy trajcover.LivePolicy
	// PollWait is the /v1/changes long-poll window (<= 0: 1s).
	PollWait time.Duration
	// RetryBackoff is the pause after a failed primary round trip
	// (<= 0: 200ms). Bootstraps and polls both back off by it.
	RetryBackoff time.Duration
	// Client is the primary-facing HTTP client (nil: default). It must
	// not carry a Timeout — snapshot streams and long-polls are meant
	// to outlive ordinary request budgets.
	Client *http.Client
	// OnSwap, when non-nil, receives each (re)bootstrapped index after
	// it has caught up to the primary's log head — the hook a serving
	// wrapper uses to swap the new index in (server.Server.SetIndex).
	OnSwap func(*trajcover.Index)
	// Logf, when non-nil, receives operational events.
	Logf func(format string, args ...any)
}

// ReplicaStatus is the /v1/replstatus document.
type ReplicaStatus struct {
	Primary    string `json:"primary"`
	BootID     string `json:"boot_id"`
	AppliedSeq uint64 `json:"applied_seq"`
	Ready      bool   `json:"ready"`
	Bootstraps uint64 `json:"bootstraps"`
	LastError  string `json:"last_error,omitempty"`
}

// Replica follows one primary: it bootstraps an Index from
// GET /v1/snapshot, replays the replication tail from GET /v1/changes
// in order, and hands the caught-up index to OnSwap. It re-bootstraps
// — loudly, from a fresh snapshot — whenever the primary's boot
// identity changes (crash + WAL recovery) or the log window trimmed
// past its cursor; the previously served index keeps serving through
// the re-bootstrap (stale reads are still a valid acknowledged
// prefix: the primary's WAL recovery never loses an acked write).
//
// The replica applies entries idempotently: a duplicate insert or a
// not-found delete is the snapshot/tail overlap working as designed
// (the snapshot header's X-Repl-Seq is read before the stream's epoch
// capture, so the tail may begin slightly before the snapshot's edge).
type Replica struct {
	cfg     ReplicaConfig
	client  *http.Client
	primary string

	mu         sync.Mutex
	boot       string
	applied    uint64
	ready      bool
	bootstraps uint64
	lastErr    string
}

// NewReplica builds a replica of the primary at the given base URL.
// Call Run to start following.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.PollWait <= 0 {
		cfg.PollWait = time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Replica{cfg: cfg, client: client, primary: cfg.Primary}
}

// Ready reports whether the replica has bootstrapped and caught up to
// the log head it observed; it stays true through primary outages (the
// replica serves its last applied state) and re-bootstraps.
func (rep *Replica) Ready() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.ready
}

// Status snapshots the replica's replication state.
func (rep *Replica) Status() ReplicaStatus {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return ReplicaStatus{
		Primary:    rep.primary,
		BootID:     rep.boot,
		AppliedSeq: rep.applied,
		Ready:      rep.ready,
		Bootstraps: rep.bootstraps,
		LastError:  rep.lastErr,
	}
}

func (rep *Replica) logf(format string, args ...any) {
	if rep.cfg.Logf != nil {
		rep.cfg.Logf(format, args...)
	}
}

func (rep *Replica) noteErr(err error) {
	rep.mu.Lock()
	rep.lastErr = err.Error()
	rep.mu.Unlock()
}

// errRebootstrap signals a 410 from /v1/changes: the tail cannot
// continue and only a fresh snapshot can.
var errRebootstrap = errors.New("dist: replication history diverged; re-bootstrap")

// Run follows the primary until ctx is cancelled. It never returns a
// partial state: the serving index either is the one from before Run
// or has caught up through OnSwap.
func (rep *Replica) Run(ctx context.Context) {
	for ctx.Err() == nil {
		if err := rep.followOnce(ctx); err != nil && ctx.Err() == nil {
			rep.noteErr(err)
			rep.logf("dist: replica: %v", err)
			select {
			case <-ctx.Done():
			case <-time.After(rep.cfg.RetryBackoff):
			}
		}
	}
}

// followOnce runs one bootstrap + tail session: snapshot, catch up,
// swap, then poll until the session breaks (error or 410).
func (rep *Replica) followOnce(ctx context.Context) error {
	idx, boot, seq, err := rep.Bootstrap(ctx)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	rep.bootstraps++
	rep.mu.Unlock()
	rep.logf("dist: replica bootstrapped from %s (boot %s, seq %d, len %d)", rep.primary, boot, seq, idx.Len())

	swapped := false
	applied := seq
	for ctx.Err() == nil {
		cr, err := rep.fetchChanges(ctx, boot, applied)
		if err != nil {
			if errors.Is(err, errRebootstrap) {
				return err
			}
			// The primary is unreachable: keep serving what we have and
			// keep trying — the history we hold stays a valid prefix.
			if !swapped {
				return err // bootstrap session never went live; restart it
			}
			rep.noteErr(err)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(rep.cfg.RetryBackoff):
			}
			continue
		}
		for _, e := range cr.Entries {
			if err := applyEntry(idx, e); err != nil {
				return fmt.Errorf("apply seq %d: %w", e.Seq, err)
			}
			applied = e.Seq
		}
		rep.mu.Lock()
		rep.applied = applied
		rep.mu.Unlock()
		// Caught up to the head the primary reported with this batch:
		// everything acknowledged before the poll is applied, so the
		// index is safe to serve.
		if !swapped && applied >= cr.Seq {
			swapped = true
			rep.mu.Lock()
			rep.boot = boot
			rep.ready = true
			rep.mu.Unlock()
			if rep.cfg.OnSwap != nil {
				rep.cfg.OnSwap(idx)
			}
		}
	}
	return nil
}

// Bootstrap downloads and restores one snapshot, returning the index,
// the primary's replication boot identity, and the sequence cursor the
// tail replay starts after. Exported for the corruption sweep tests;
// Run is the normal entry point.
func (rep *Replica) Bootstrap(ctx context.Context) (*trajcover.Index, string, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.primary+server.PathSnapshot, nil)
	if err != nil {
		return nil, "", 0, err
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		return nil, "", 0, fmt.Errorf("snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, "", 0, fmt.Errorf("snapshot: %s: %s", resp.Status, body)
	}
	boot := resp.Header.Get("X-Repl-Boot")
	if boot == "" {
		return nil, "", 0, fmt.Errorf("snapshot: primary at %s is not replicating (no X-Repl-Boot; is it multi-tenant or an old build?)", rep.primary)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Repl-Seq"), 10, 64)
	if err != nil {
		return nil, "", 0, fmt.Errorf("snapshot: bad X-Repl-Seq %q: %v", resp.Header.Get("X-Repl-Seq"), err)
	}
	idx, err := trajcover.ReadLiveSnapshot(resp.Body, rep.cfg.Policy)
	if err != nil {
		// Truncated or corrupted stream: fail loudly, restore nothing.
		return nil, "", 0, fmt.Errorf("snapshot restore: %w", err)
	}
	return idx, boot, seq, nil
}

// fetchChanges long-polls one tail batch. A 410 (boot change or trim)
// maps to errRebootstrap.
func (rep *Replica) fetchChanges(ctx context.Context, boot string, after uint64) (*server.ChangesResponse, error) {
	url := fmt.Sprintf("%s%s?after=%d&boot=%s&wait_ms=%d", rep.primary, server.PathChanges, after, boot, rep.cfg.PollWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("changes: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("changes: %w", err)
	}
	if resp.StatusCode == http.StatusGone {
		return nil, fmt.Errorf("%w: %s", errRebootstrap, data)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("changes: %s: %s", resp.Status, data)
	}
	var cr server.ChangesResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return nil, fmt.Errorf("changes: bad body: %v", err)
	}
	return &cr, nil
}

// applyEntry replays one replicated write. Overlap with the snapshot
// is expected and harmless (duplicate insert, not-found delete);
// anything else — a malformed trajectory, a degraded index — is a
// real divergence and fails the session loudly.
func applyEntry(idx *trajcover.Index, e replog.Entry) error {
	switch e.Op {
	case replog.OpInsert:
		pts := make([]trajcover.Point, len(e.Points))
		for i, p := range e.Points {
			pts[i] = trajcover.Pt(p[0], p[1])
		}
		u, err := trajcover.NewTrajectory(trajcover.ID(e.ID), pts)
		if err != nil {
			return err
		}
		if err := idx.Insert(u); err != nil && !errors.Is(err, trajcover.ErrDuplicateID) {
			return err
		}
		return nil
	case replog.OpDelete:
		_, err := idx.Delete(trajcover.ID(e.ID))
		return err
	default:
		return fmt.Errorf("unknown replicated op %q", e.Op)
	}
}

// ReplicaHandler wraps a backend server's handler with replica
// semantics: writes and WAL ops answer 403 (the primary owns them),
// reads answer 503 + Retry-After until the replica's first catch-up,
// /healthz reports "syncing" (503) until then, and /v1/replstatus
// serves the replication cursor. After the first catch-up everything
// passes through — including during primary outages and
// re-bootstraps, when the last applied state keeps serving. An exchange
// connection (POST /v1/exchange) is checked once, at its upgrade:
// readiness never reverts, so every frame it carries afterwards comes
// after the first catch-up too.
func ReplicaHandler(inner http.Handler, rep *Replica) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case server.PathInsert, server.PathDelete, server.PathCompact, server.PathCheckpoint:
			writeJSON(w, http.StatusForbidden, server.ErrorResponse{Error: fmt.Sprintf("replica is read-only: send writes to the primary (%s) or the frontend", rep.primary)})
			return
		case PathReplStatus:
			writeJSON(w, http.StatusOK, rep.Status())
			return
		}
		if !rep.Ready() {
			if r.URL.Path == server.PathHealth {
				w.Header().Set("Retry-After", server.RetryAfter)
				writeJSON(w, http.StatusServiceUnavailable, server.HealthResponse{Status: "syncing"})
				return
			}
			w.Header().Set("Retry-After", server.RetryAfter)
			writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "replica syncing: not caught up to the primary yet"})
			return
		}
		inner.ServeHTTP(w, r)
	})
}
