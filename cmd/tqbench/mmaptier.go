package main

// The `mmaptier` experiment: what a cold start costs in each memory
// tier. It times opening the SAME frozen snapshot file through the heap
// restore (parse + copy every column) and the mapped open (CRC + bounds
// checks, columns aliased onto the page cache) and reports the
// resident-memory cost of each as informational series — the mapped
// open's RSS stays near zero because untouched pages are never faulted
// in. It lives here rather than in internal/bench because it fronts the
// public package's snapshot layer.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
)

// rssAnonBytes reads the process's anonymous resident set (RssAnon
// from /proc/self/status) — the honest "heap cost" comparison for the
// two opens, since a mapped snapshot's resident file pages are shared,
// evictable page cache, not process-private memory. Returns 0 when
// unreadable (non-Linux), keeping the series informational rather
// than failing the run.
func rssAnonBytes() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "RssAnon:") {
			continue
		}
		var kb float64
		if _, err := fmt.Sscanf(line, "RssAnon: %f kB", &kb); err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func expMmaptier(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "mmaptier", Title: "frozen snapshot open: heap restore vs mmap alias (NYT)",
		XLabel: "users", YLabel: "restores/sec",
		Series: []bench.Series{
			{Method: "heap"},
			{Method: "mapped"},
			{Method: "speedup (n)"},
			{Method: "heap anon RSS delta MB (n)"},
			{Method: "mapped anon RSS delta MB (n)"},
		},
	}
	dir, err := os.MkdirTemp("", "tqbench-mmap-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for _, paperN := range []int{datagen.NYT1Day, datagen.NYT3Days} {
		users := ctx.Users("nyt", paperN)
		idx, err := trajcover.NewIndex(users.All, trajcover.IndexOptions{Ordering: trajcover.ZOrdering})
		if err != nil {
			return nil, err
		}
		fz, err := idx.Freeze()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("frozen-%d.tqsnap", users.Len()))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := fz.WriteSnapshot(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}

		// RSS deltas from one fresh open each, GC'd to a quiet baseline.
		// Resident memory is scheduler- and allocator-noisy, hence the
		// informational "(n)" marking; the point is the order of
		// magnitude — heap restores materialize every column, mapped
		// opens only fault in what the CRC pass touches.
		measureRSS := func(open func() error) (float64, error) {
			runtime.GC()
			debug.FreeOSMemory()
			before := rssAnonBytes()
			if err := open(); err != nil {
				return 0, err
			}
			after := rssAnonBytes()
			delta := after - before
			if delta < 0 {
				delta = 0
			}
			return delta / (1 << 20), nil
		}
		heapRSS, err := measureRSS(func() error {
			r, err := os.Open(path)
			if err != nil {
				return err
			}
			defer r.Close()
			_, err = trajcover.ReadFrozenSnapshot(r)
			return err
		})
		if err != nil {
			return nil, err
		}
		mappedRSS, err := measureRSS(func() error {
			_, err := trajcover.OpenMappedFrozenSnapshot(path)
			return err
		})
		if err != nil {
			return nil, err
		}

		// Quiesce between timed sections so one open's GC debt (a heap
		// restore allocates every column) is not billed to the other.
		var oerr error
		runtime.GC()
		heapSec := ctx.Time(func() {
			r, err := os.Open(path)
			if err != nil {
				oerr = err
				return
			}
			defer r.Close()
			if _, err := trajcover.ReadFrozenSnapshot(r); err != nil {
				oerr = err
			}
		})
		runtime.GC()
		mappedSec := ctx.Time(func() {
			if _, err := trajcover.OpenMappedFrozenSnapshot(path); err != nil {
				oerr = err
			}
		})
		if oerr != nil {
			return nil, oerr
		}
		rate := func(sec float64) float64 {
			if sec <= 0 {
				return 0
			}
			return 1 / sec
		}
		speedup := 0.0
		if mappedSec > 0 {
			speedup = heapSec / mappedSec
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(users.Len()))
		t.Series[0].Y = append(t.Series[0].Y, rate(heapSec))
		t.Series[1].Y = append(t.Series[1].Y, rate(mappedSec))
		t.Series[2].Y = append(t.Series[2].Y, speedup)
		t.Series[3].Y = append(t.Series[3].Y, heapRSS)
		t.Series[4].Y = append(t.Series[4].Y, mappedRSS)
	}
	return t, nil
}
