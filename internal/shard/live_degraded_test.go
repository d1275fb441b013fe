package shard

import (
	"context"
	"errors"
	"testing"

	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/wal"
)

// TestLiveDegradedStateMachine drives the full wedge → degraded →
// recover cycle at the shard layer: an injected fsync failure must NOT
// ack the write, must flip the index to degraded (hook fired, Health
// observable, writes fast-fail with ErrDegraded, queries unaffected),
// and SwapWAL + ExitDegraded must restore writable service.
func TestLiveDegradedStateMachine(t *testing.T) {
	users := makeUsers(300, 4, 91)
	facilities := makeFacilities(8, 8, 92)
	opts := Options{Shards: 2, Tree: tqtree.Options{
		Variant: tqtree.FullTrajectory, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}
	lv, err := BuildLive(users[:200], opts, manualPolicy())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 1)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	lv.AttachWAL(log)
	var hookCause error
	lv.SetDegradeHook(func(cause error) { hookCause = cause })

	if err := lv.Insert(users[200]); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	if h := lv.Health(); h.Degraded || h.Entries != 0 {
		t.Fatalf("healthy index reports %+v", h)
	}

	// Answers before the wedge, to compare against during degradation.
	p := Params{Scenario: service.Binary, Psi: 40}
	wantV, _, err := lv.ServiceValuesCtx(context.Background(), facilities, p, 2)
	if err != nil {
		t.Fatal(err)
	}

	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1})
	if err := lv.Insert(users[201]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert over failing fsync: got %v, want ErrDegraded", err)
	}
	if hookCause == nil {
		t.Fatal("degrade hook did not fire")
	}
	if !lv.Degraded() {
		t.Fatal("index not degraded after wedge")
	}
	h := lv.Health()
	if !h.Degraded || h.Entries != 1 || h.Exits != 0 || h.Cause == "" || h.Since.IsZero() {
		t.Fatalf("degraded health %+v", h)
	}
	// Writes fast-fail without touching the wedged log.
	if err := lv.Insert(users[202]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert: got %v", err)
	}
	if _, err := lv.Delete(users[0].ID); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded delete: got %v", err)
	}
	// Queries keep serving the last published epochs.
	gotV, _, err := lv.ServiceValuesCtx(context.Background(), facilities, p, 2)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("degraded answers diverge at %d: %g vs %g", i, gotV[i], wantV[i])
		}
	}

	// Recover: successor log, swap while still degraded, then exit.
	inj.Heal()
	old := lv.WAL()
	old.Close()
	log2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if prev := lv.SwapWAL(log2); prev != old {
		t.Fatal("SwapWAL returned a different log than attached")
	}
	lv.ExitDegraded()
	h = lv.Health()
	if h.Degraded || h.Entries != 1 || h.Exits != 1 || h.Cause != "" {
		t.Fatalf("post-recovery health %+v", h)
	}
	// users[201] hit the failed-ack path: it is applied in memory but was
	// never acknowledged, so a retry must see it as a duplicate.
	if err := lv.Insert(users[201]); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("retried unacked insert: got %v, want ErrDuplicateID (applied in memory)", err)
	}
	if err := lv.Insert(users[202]); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if _, err := lv.Delete(users[0].ID); err != nil {
		t.Fatalf("post-recovery delete: %v", err)
	}
}

// TestLiveDegradedTransitionsIdempotent: Enter/Exit are idempotent and
// the counters stay monotone with Entries-Exits ∈ {0,1}.
func TestLiveDegradedTransitionsIdempotent(t *testing.T) {
	users := makeUsers(50, 4, 93)
	lv, err := BuildLive(users, Options{Shards: 1, Tree: tqtree.Options{
		Variant: tqtree.FullTrajectory, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}, manualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	lv.ExitDegraded() // healthy exit is a no-op
	if h := lv.Health(); h.Entries != 0 || h.Exits != 0 {
		t.Fatalf("no-op exit bumped counters: %+v", h)
	}
	cause := errors.New("boom")
	lv.EnterDegraded(cause)
	lv.EnterDegraded(errors.New("second cause must not overwrite"))
	if h := lv.Health(); h.Entries != 1 || h.Cause != "boom" {
		t.Fatalf("re-entry not idempotent: %+v", h)
	}
	if err := lv.Insert(users[0]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert without WAL: %v", err)
	}
	lv.ExitDegraded()
	lv.ExitDegraded()
	if h := lv.Health(); h.Entries != 1 || h.Exits != 1 || h.Degraded {
		t.Fatalf("exit not idempotent: %+v", h)
	}
}
