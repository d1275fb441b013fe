package tenant

// Gate is one tenant's admission state, enforced by the serving front
// end on top of (not instead of) its global slots: the slots bound
// total CPU and how many requests wait, the Gate bounds one tenant's
// share of them, so a noisy tenant exhausts its own quota and gets 429 while
// its neighbours keep being served. Slots are reserved with CAS loops —
// never optimistic increments — so a limit of N admits exactly N
// concurrent requests, which is what lets the quota tests be
// deterministic instead of statistical.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// RejectReason says which limit turned a request away.
type RejectReason string

const (
	RejectInflight RejectReason = "max_inflight"
	RejectQueue    RejectReason = "max_queue"
	RejectRate     RejectReason = "writes_per_sec"
)

// Gate is safe for concurrent use; the zero value is ready.
type Gate struct {
	// Now is the clock (nil: time.Now). Tests inject a fake to make the
	// write-rate bucket deterministic.
	Now func() time.Time

	// inflight counts admitted-and-unfinished requests; queued counts
	// the subset still waiting to run.
	inflight atomic.Int64
	queued   atomic.Int64

	// Served-traffic counters for /statsz.
	requests atomic.Uint64
	writes   atomic.Uint64

	rejInflight atomic.Uint64
	rejQueue    atomic.Uint64
	rejRate     atomic.Uint64

	// Token bucket for the write rate (mu). last is the previous refill
	// instant. rate holds the bits of the limit the last write ran under,
	// 0 for unlimited, so that any change of limit — to or from unlimited
	// too — starts the bucket from a full burst. The unlimited path reads
	// and clears it without mu.
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   atomic.Uint64
}

func (g *Gate) now() time.Time {
	if g.Now != nil {
		return g.Now()
	}
	return time.Now()
}

// reserve CAS-increments ctr if it is below max (max <= 0: unlimited).
func reserve(ctr *atomic.Int64, max int) bool {
	if max <= 0 {
		ctr.Add(1)
		return true
	}
	for {
		cur := ctr.Load()
		if cur >= int64(max) {
			return false
		}
		if ctr.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Admit reserves an inflight slot and a queue slot under lim, or
// reports which limit rejected (and counts the rejection). A true
// return obligates the caller to eventually call Started (when the
// request starts to run) and Finished (when it completes) — or Cancel
// if it never runs.
func (g *Gate) Admit(lim Limits) (ok bool, reason RejectReason) {
	if !reserve(&g.inflight, lim.MaxInflight) {
		g.rejInflight.Add(1)
		return false, RejectInflight
	}
	if !reserve(&g.queued, lim.MaxQueue) {
		g.inflight.Add(-1)
		g.rejQueue.Add(1)
		return false, RejectQueue
	}
	g.requests.Add(1)
	return true, ""
}

// AdmitWrite is the write-rate token bucket: under lim.WritesPerSec
// (<= 0: unlimited) it admits up to burst = max(1, rate) immediately
// and refills continuously. A write under a limit other than the last
// write's starts from a full burst. Rejections are counted.
func (g *Gate) AdmitWrite(lim Limits) bool {
	rate := lim.WritesPerSec
	if rate <= 0 {
		if g.rate.Load() != 0 {
			g.rate.Store(0)
		}
		g.writes.Add(1)
		return true
	}
	burst := rate
	if burst < 1 {
		burst = 1
	}
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if bits := math.Float64bits(rate); g.rate.Load() != bits {
		// First use, or the limit changed under reload: start from a
		// full burst. A shrinking limit must clamp immediately.
		g.tokens = burst
		g.rate.Store(bits)
	} else {
		g.tokens += now.Sub(g.last).Seconds() * rate
		if g.tokens > burst {
			g.tokens = burst
		}
	}
	g.last = now
	if g.tokens < 1 {
		g.rejRate.Add(1)
		return false
	}
	g.tokens--
	g.writes.Add(1)
	return true
}

// Started releases the queue slot an Admit reserved — the request is
// running now.
func (g *Gate) Started() { g.queued.Add(-1) }

// Finished releases the inflight slot.
func (g *Gate) Finished() { g.inflight.Add(-1) }

// Cancel releases both slots — the admitted request never runs (served
// from the cache, refused by the server, or out of time while waiting).
func (g *Gate) Cancel() {
	g.queued.Add(-1)
	g.inflight.Add(-1)
}

// GateSnapshot is the gate's counters as served by /statsz.
type GateSnapshot struct {
	Inflight         int64  `json:"inflight"`
	Queued           int64  `json:"queued"`
	Requests         uint64 `json:"requests"`
	Writes           uint64 `json:"writes"`
	RejectedInflight uint64 `json:"rejected_inflight"`
	RejectedQueue    uint64 `json:"rejected_queue"`
	RejectedRate     uint64 `json:"rejected_rate"`
}

// Rejected is the total across all reject reasons.
func (s GateSnapshot) Rejected() uint64 {
	return s.RejectedInflight + s.RejectedQueue + s.RejectedRate
}

// Snapshot reads the counters.
func (g *Gate) Snapshot() GateSnapshot {
	return GateSnapshot{
		Inflight:         g.inflight.Load(),
		Queued:           g.queued.Load(),
		Requests:         g.requests.Load(),
		Writes:           g.writes.Load(),
		RejectedInflight: g.rejInflight.Load(),
		RejectedQueue:    g.rejQueue.Load(),
		RejectedRate:     g.rejRate.Load(),
	}
}
