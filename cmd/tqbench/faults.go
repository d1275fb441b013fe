package main

// The `faults` experiment: the cost of a dying disk at the query layer.
// A WAL-backed live index serves timed single-facility queries while
// writes flow; mid-row the injected filesystem wedges every fsync (the
// index enters degraded read-only mode, writes fail fast with
// ErrDegraded) and is then healed (the backoff probe reopens the WAL
// and recovers without a restart). The series report query p50/p99 per
// phase — the claim under test is that a wedged disk must not move
// query latency, because reads only ever load an epoch pointer — plus
// the fraction of writes acknowledged, which collapses to ~0 while
// degraded and returns to 1 after recovery. It lives here rather than
// in internal/bench because it exercises the public degraded-mode API.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/faultfs"
)

// faultQueries is the number of timed queries per phase.
const faultQueries = 150

func expFaults(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "faults", Title: "query latency through a WAL wedge and auto-recovery (NYT)",
		XLabel: "phase", YLabel: "seconds per query (write_ok: fraction of writes acked)",
		Series: []bench.Series{{Method: "p50"}, {Method: "p99"}, {Method: "write_ok"}},
	}
	users := ctx.Users("nyt", datagen.NYT1Day)
	routes := ctx.Routes("ny", 64, 16)
	baseN := users.Len() * 1 / 2
	base, feed := users.All[:baseN], users.All[baseN:]

	dir, err := os.MkdirTemp("", "tqbench-faults-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	inj := faultfs.NewInjector(nil, ctx.Cfg.Seed)
	x, err := trajcover.OpenIndex(trajcover.WALOptions{
		Dir: dir, Sync: trajcover.WALSyncAlways, SegmentBytes: 1 << 20,
		FS: inj, ProbeMin: 5 * time.Millisecond, ProbeMax: 100 * time.Millisecond,
	}, trajcover.LivePolicy{MaxDelta: 512}, func() (*trajcover.Index, error) {
		return trajcover.NewIndex(base, trajcover.IndexOptions{
			Ordering: trajcover.ZOrdering,
			Shards:   2,
			Policy:   trajcover.LivePolicy{MaxDelta: 512},
		})
	})
	if err != nil {
		return nil, err
	}
	defer x.Close()

	q := trajcover.Query{Scenario: trajcover.Binary, Psi: ctx.Cfg.Psi}
	// phase interleaves one write attempt per timed query, tolerating
	// only the degraded-mode rejections the experiment is about.
	phase := func() (p50, p99, writeOK float64, err error) {
		lat := make([]float64, 0, faultQueries)
		writes, acked := 0, 0
		for i := 0; i < faultQueries; i++ {
			if len(feed) > 0 {
				u := feed[0]
				writes++
				switch werr := x.Insert(u); {
				case werr == nil:
					acked++
					feed = feed[1:]
				case trajcover.IsDegraded(werr):
					// Rejected unacked; retry the same user next round.
				case errors.Is(werr, trajcover.ErrDuplicateID):
					// The wedging write: applied-but-unacked when the disk
					// died, made durable by the recovery checkpoint.
					acked++
					feed = feed[1:]
				default:
					return 0, 0, 0, werr
				}
			}
			f := routes[i%len(routes)]
			start := time.Now()
			if _, qerr := x.ServiceValues([]*trajcover.Facility{f}, q, 1); qerr != nil {
				return 0, 0, 0, qerr
			}
			lat = append(lat, time.Since(start).Seconds())
		}
		sort.Float64s(lat)
		ok := 0.0
		if writes > 0 {
			ok = float64(acked) / float64(writes)
		}
		return pctile(lat, 0.50), pctile(lat, 0.99), ok, nil
	}

	addRow := func(name string, setup func() error) error {
		if setup != nil {
			if err := setup(); err != nil {
				return err
			}
		}
		p50, p99, ok, err := phase()
		if err != nil {
			return fmt.Errorf("faults phase %s: %w", name, err)
		}
		t.XTicks = append(t.XTicks, name)
		t.Series[0].Y = append(t.Series[0].Y, p50)
		t.Series[1].Y = append(t.Series[1].Y, p99)
		t.Series[2].Y = append(t.Series[2].Y, ok)
		return nil
	}

	if err := addRow("healthy", nil); err != nil {
		return nil, err
	}
	// Wedge every fsync persistently: the first write of the phase
	// degrades the index and the probe's recovery attempts keep failing,
	// so the whole row is measured inside the degraded window.
	if err := addRow("degraded", func() error {
		inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Times: 1 << 30})
		return nil
	}); err != nil {
		return nil, err
	}
	// Heal the disk and let the backoff probe recover — no restart.
	if err := addRow("recovered", func() error {
		inj.Heal()
		deadline := time.Now().Add(30 * time.Second)
		for x.Degraded() {
			if time.Now().After(deadline) {
				return fmt.Errorf("probe did not recover: %+v", x.Health())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// pctile returns the q-quantile of sorted samples.
func pctile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
