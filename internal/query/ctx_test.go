package query

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestResolveWorkers pins the one normalization every batch/parallel
// entry point shares: non-positive means GOMAXPROCS, clamped to the
// item count, never below 1.
func TestResolveWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		name           string
		workers, items int
		want           int
	}{
		{"zero means GOMAXPROCS", 0, 1 << 20, gmp},
		{"negative means GOMAXPROCS", -7, 1 << 20, gmp},
		{"explicit passes through", 3, 100, 3},
		{"clamped to items", 16, 5, 5},
		{"zero items still yields one", 4, 0, 1},
		{"zero workers zero items", 0, 0, 1},
		{"negative workers zero items", -1, 0, 1},
		{"one and one", 1, 1, 1},
		{"default clamped to items", 0, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ResolveWorkers(tc.workers, tc.items); got != tc.want {
				t.Fatalf("ResolveWorkers(%d, %d) = %d, want %d", tc.workers, tc.items, got, tc.want)
			}
		})
	}
}

// countdownCtx is a context whose Done channel closes after n polls —
// a deterministic way to cancel mid-query, since the batch loop polls
// Done between facilities. Safe for concurrent polling.
type countdownCtx struct {
	n    atomic.Int64
	ch   chan struct{}
	once sync.Once
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{ch: make(chan struct{})}
	c.n.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.n.Add(-1) < 0 {
		c.once.Do(func() { close(c.ch) })
	}
	return c.ch
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.ch:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Value(any) any               { return nil }

// ctxEngines is ServiceValuesCtx over one base — an epoch with an empty
// overlay over it — the batch every served top-k runs, and so the one
// place a query polls its context.
func ctxEngines(t *testing.T) map[string]func(context.Context, []*trajectory.Facility, Params, int) ([]float64, Metrics, error) {
	t.Helper()
	ep := executorEnv(t, tqtree.TwoPoint, tqtree.ZOrder)
	return map[string]func(context.Context, []*trajectory.Facility, Params, int) ([]float64, Metrics, error){
		"Epoch": ep.ServiceValuesCtx,
	}
}

// TestCtxVariantsMatchPlain: with a context that never cancels,
// ServiceValuesCtx answers byte-identically — values and metrics — to
// per-facility ServiceValue, which polls no context, serially and on a
// pool.
func TestCtxVariantsMatchPlain(t *testing.T) {
	ep := executorEnv(t, tqtree.TwoPoint, tqtree.ZOrder)
	fs := makeFacilities(32, 12, 301)
	p := Params{Scenario: service.Binary, Psi: 45}

	want := make([]float64, len(fs))
	var wantM Metrics
	for i, f := range fs {
		v, m, err := ep.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
		wantM.Add(m)
	}
	for name, values := range ctxEngines(t) {
		for _, workers := range []int{1, 3} {
			got, gotM, err := values(context.Background(), fs, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if gotM != wantM {
				t.Fatalf("%s workers=%d: ServiceValuesCtx metrics %+v, plain %+v", name, workers, gotM, wantM)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: ServiceValuesCtx[%d] = %v, plain %v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCtxExpiredAborts: an already-expired deadline aborts
// ServiceValuesCtx with context.DeadlineExceeded and no answer, serially
// and on a pool.
func TestCtxExpiredAborts(t *testing.T) {
	fs := makeFacilities(32, 12, 302)
	p := Params{Scenario: service.Binary, Psi: 45}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	for name, values := range ctxEngines(t) {
		for _, workers := range []int{1, 4} {
			if vs, _, err := values(ctx, fs, p, workers); !errors.Is(err, context.DeadlineExceeded) || vs != nil {
				t.Fatalf("%s workers=%d: ServiceValuesCtx = (%v, %v), want (nil, DeadlineExceeded)", name, workers, vs, err)
			}
		}
	}
}

// TestCtxAbortsMidQuery: a context that expires after a fixed number of
// polls aborts the batch partway — proof the loop actually checks
// between facilities rather than only on entry.
func TestCtxAbortsMidQuery(t *testing.T) {
	fs := makeFacilities(32, 12, 303)
	p := Params{Scenario: service.Binary, Psi: 45}

	for name, values := range ctxEngines(t) {
		_, full, err := values(context.Background(), fs, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		vs, m, err := values(newCountdownCtx(5), fs, p, 1)
		if !errors.Is(err, context.DeadlineExceeded) || vs != nil {
			t.Fatalf("%s: ServiceValuesCtx = (%v, %v), want (nil, DeadlineExceeded)", name, vs, err)
		}
		if m.NodesVisited == 0 || m.NodesVisited >= full.NodesVisited {
			t.Fatalf("%s: abort not mid-query: %d node visits (full run %d)", name, m.NodesVisited, full.NodesVisited)
		}
		if vs, _, err := values(newCountdownCtx(5), fs, p, 3); !errors.Is(err, context.DeadlineExceeded) || vs != nil {
			t.Fatalf("%s workers=3: ServiceValuesCtx = (%v, %v), want (nil, DeadlineExceeded)", name, vs, err)
		}
	}
}

// TestEpochServiceValuesCtx: the epoch batch (masked base + delta fold)
// honors cancellation in both its serial and worker paths.
func TestEpochServiceValuesCtx(t *testing.T) {
	users := makeUsers(800, 2, 304)
	base := baseEpoch(t, users.All[:600], tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Bounds: testBounds,
	})
	ep, err := NewEpoch(base.Base(), users.All[600:], nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := makeFacilities(24, 8, 305)
	p := Params{Scenario: service.Binary, Psi: 45}

	got, _, err := ep.ServiceValuesCtx(context.Background(), fs, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		want, _, err := ep.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("ServiceValuesCtx[%d] = %v, ServiceValue %v", i, got[i], want)
		}
	}
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		if vs, _, err := ep.ServiceValuesCtx(ctx, fs, p, workers); !errors.Is(err, context.DeadlineExceeded) || vs != nil {
			t.Fatalf("workers=%d: ServiceValuesCtx = (%v, %v), want (nil, DeadlineExceeded)", workers, vs, err)
		}
		cancel()
	}
}
