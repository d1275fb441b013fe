package tenant

import (
	"sync"
	"testing"
	"time"
)

func TestGateInflightExact(t *testing.T) {
	var g Gate
	lim := Limits{MaxInflight: 3}
	for i := 0; i < 3; i++ {
		if ok, _ := g.Admit(lim); !ok {
			t.Fatalf("admit %d rejected", i)
		}
	}
	ok, reason := g.Admit(lim)
	if ok || reason != RejectInflight {
		t.Fatalf("4th admit: ok=%v reason=%q", ok, reason)
	}
	// Releasing one slot re-opens exactly one.
	g.Started()
	g.Finished()
	if ok, _ := g.Admit(lim); !ok {
		t.Fatal("admit after release rejected")
	}
	s := g.Snapshot()
	if s.Requests != 4 || s.RejectedInflight != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestGateQueueLimitAndRollback(t *testing.T) {
	var g Gate
	lim := Limits{MaxInflight: 10, MaxQueue: 1}
	if ok, _ := g.Admit(lim); !ok {
		t.Fatal("first admit rejected")
	}
	// Queue is full; the reject must roll back the inflight reservation.
	ok, reason := g.Admit(lim)
	if ok || reason != RejectQueue {
		t.Fatalf("queue-full admit: ok=%v reason=%q", ok, reason)
	}
	if s := g.Snapshot(); s.Inflight != 1 || s.Queued != 1 {
		t.Fatalf("rollback failed: %+v", s)
	}
	// Worker picks the first request up: the queue slot frees while the
	// inflight slot stays held.
	g.Started()
	if ok, _ := g.Admit(lim); !ok {
		t.Fatal("admit after Started rejected")
	}
	// Cancel (global queue full) releases both.
	g.Cancel()
	if s := g.Snapshot(); s.Inflight != 1 || s.Queued != 0 {
		t.Fatalf("cancel: %+v", s)
	}
}

func TestGateUnlimited(t *testing.T) {
	var g Gate
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := g.Admit(Limits{}); !ok {
				t.Error("unlimited admit rejected")
			}
		}()
	}
	wg.Wait()
	if s := g.Snapshot(); s.Inflight != 64 || s.Requests != 64 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestGateAdmitConcurrentExact(t *testing.T) {
	// Under contention the CAS loop must admit exactly MaxInflight.
	var g Gate
	lim := Limits{MaxInflight: 7}
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := g.Admit(lim); ok {
				admitted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	if n := len(admitted); n != 7 {
		t.Fatalf("admitted %d, want exactly 7", n)
	}
	if s := g.Snapshot(); s.RejectedInflight != 64-7 {
		t.Fatalf("rejected %d, want %d", s.RejectedInflight, 64-7)
	}
}

func TestGateWriteRateFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	g := Gate{Now: func() time.Time { return now }}
	lim := Limits{WritesPerSec: 2} // burst = 2

	// Burst admits exactly 2, then rejects.
	if !g.AdmitWrite(lim) || !g.AdmitWrite(lim) {
		t.Fatal("burst writes rejected")
	}
	if g.AdmitWrite(lim) {
		t.Fatal("third write admitted with empty bucket")
	}

	// 250ms refills 0.5 tokens — still under one.
	now = now.Add(250 * time.Millisecond)
	if g.AdmitWrite(lim) {
		t.Fatal("admitted with 0.5 tokens")
	}
	// Another 250ms tops it up to 1.
	now = now.Add(250 * time.Millisecond)
	if !g.AdmitWrite(lim) {
		t.Fatal("rejected with a full token")
	}

	// A long idle period caps at burst: 2 writes, not 20.
	now = now.Add(10 * time.Second)
	if !g.AdmitWrite(lim) || !g.AdmitWrite(lim) {
		t.Fatal("post-idle burst rejected")
	}
	if g.AdmitWrite(lim) {
		t.Fatal("burst cap ignored after idle")
	}

	s := g.Snapshot()
	if s.Writes != 5 || s.RejectedRate != 3 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestGateWriteRateReloadReclamps(t *testing.T) {
	now := time.Unix(2000, 0)
	g := Gate{Now: func() time.Time { return now }}

	// Accumulate a big bucket under a loose limit.
	loose := Limits{WritesPerSec: 100}
	if !g.AdmitWrite(loose) {
		t.Fatal("loose write rejected")
	}
	now = now.Add(time.Second)

	// The limit tightens (overrides reload): the bucket must re-clamp to
	// the new burst instead of spending the 100-token backlog.
	tight := Limits{WritesPerSec: 1}
	if !g.AdmitWrite(tight) {
		t.Fatal("first tight write rejected")
	}
	if g.AdmitWrite(tight) {
		t.Fatal("tightened limit ignored accumulated tokens")
	}
}

// TestGateWriteRateThroughUnlimited: a limit that goes through unlimited
// and back starts from a full burst, as any other change of limit does —
// X → unlimited → X as much as X → unlimited → Y.
func TestGateWriteRateThroughUnlimited(t *testing.T) {
	for _, back := range []float64{0.001, 2} {
		now := time.Unix(4000, 0)
		g := Gate{Now: func() time.Time { return now }}
		x := Limits{WritesPerSec: 0.001} // burst 1, a token every 1000 s
		if !g.AdmitWrite(x) || g.AdmitWrite(x) {
			t.Fatalf("back to %v: the first limited write must land and empty the bucket", back)
		}
		if !g.AdmitWrite(Limits{}) {
			t.Fatalf("back to %v: unlimited write rejected", back)
		}
		now = now.Add(time.Second)
		lim := Limits{WritesPerSec: back}
		burst := int(max(1, back))
		for i := range burst {
			if !g.AdmitWrite(lim) {
				t.Fatalf("X → unlimited → %v: write %d of a full burst of %d rejected", back, i+1, burst)
			}
		}
		if g.AdmitWrite(lim) {
			t.Fatalf("X → unlimited → %v: a write past the burst of %d admitted", back, burst)
		}
	}
}

func TestGateWriteRateFractional(t *testing.T) {
	now := time.Unix(3000, 0)
	g := Gate{Now: func() time.Time { return now }}
	lim := Limits{WritesPerSec: 0.5} // burst floor = 1

	if !g.AdmitWrite(lim) {
		t.Fatal("initial write rejected")
	}
	if g.AdmitWrite(lim) {
		t.Fatal("second immediate write admitted")
	}
	now = now.Add(2 * time.Second)
	if !g.AdmitWrite(lim) {
		t.Fatal("write after full refill rejected")
	}
}

func TestGateWriteUnlimited(t *testing.T) {
	var g Gate
	for i := 0; i < 100; i++ {
		if !g.AdmitWrite(Limits{}) {
			t.Fatal("unlimited write rejected")
		}
	}
	if s := g.Snapshot(); s.Writes != 100 || s.RejectedRate != 0 {
		t.Fatalf("snapshot %+v", s)
	}
}
