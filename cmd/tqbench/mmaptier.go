package main

// The `mmaptier` and `rescache` experiments: the two memory tiers
// added for cold-start and hot-query cost. mmaptier times opening the
// SAME frozen snapshot file through the heap restore (parse + copy every
// column) and the mapped open (CRC + bounds checks, columns aliased
// onto the page cache) and reports the resident-memory cost of each
// as informational series — the mapped open's RSS stays near zero
// because untouched pages are never faulted in. rescache drives the
// tqserve front end with a repeated identical query, cache off vs on,
// and reports the hit rate alongside the throughput. Both live here
// rather than in internal/bench because they front the public
// package's snapshot and server layers.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/server"
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

// rescacheRequests is how many identical requests each measurement
// fires; past the first miss they are all cache hits when the cache
// is on.
const rescacheRequests = 64

func expRescache(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "rescache", Title: "tqserve repeated-query throughput: result cache off vs on (NYT)",
		XLabel: "result cache", YLabel: "requests/sec",
		Series: []bench.Series{
			{Method: "servicevalues"},
			{Method: "hit rate % (n)"},
		},
	}
	users := ctx.Users("nyt", datagen.NYT1Day)
	idx, err := trajcover.NewLiveShardedIndex(users.All, trajcover.LiveShardOptions{
		Shards: 2,
		Index:  trajcover.IndexOptions{Ordering: trajcover.ZOrdering},
		Policy: trajcover.LivePolicy{Manual: true},
	})
	if err != nil {
		return nil, err
	}
	routes := ctx.Routes("ny", 128, 32)
	fjs := server.FacilitiesJSON(routes)
	body := mustJSON(server.QueryRequest{Facilities: fjs, Psi: ctx.Cfg.Psi, Workers: 1, TimeoutMS: 60_000})

	for _, cacheBytes := range []int64{0, 64 << 20} {
		srv := server.New(idx, server.Config{
			Workers:          2,
			QueueDepth:       2 * rescacheRequests,
			DefaultTimeout:   time.Minute,
			MaxTimeout:       time.Minute,
			ResultCacheBytes: cacheBytes,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		url := "http://" + ln.Addr().String()
		client := &http.Client{Timeout: 2 * time.Minute}

		// Warm once so the cached measurement times steady-state hits,
		// not the first miss.
		if err := hammer(client, url+server.PathServiceValues, body, 1, 1); err != nil {
			hs.Close()
			srv.Close()
			return nil, err
		}
		var qerr error
		sec := ctx.Time(func() {
			if err := hammer(client, url+server.PathServiceValues, body, rescacheRequests, 1); err != nil {
				qerr = err
			}
		})
		hitRate := 0.0
		if rc := srv.Stats().ResultCache; rc != nil && rc.Hits+rc.Misses > 0 {
			hitRate = 100 * float64(rc.Hits) / float64(rc.Hits+rc.Misses)
		}
		hs.Close()
		srv.Close()
		if qerr != nil {
			return nil, qerr
		}
		rate := 0.0
		if sec > 0 {
			rate = float64(rescacheRequests) / sec
		}
		tick := "off"
		if cacheBytes > 0 {
			tick = "on"
		}
		t.XTicks = append(t.XTicks, tick)
		t.Series[0].Y = append(t.Series[0].Y, rate)
		t.Series[1].Y = append(t.Series[1].Y, hitRate)
	}
	return t, nil
}
