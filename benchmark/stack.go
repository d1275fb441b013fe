package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/server"
)

// serverTimeout is every server-side deadline; see requestTimeoutMS.
const serverTimeout = requestTimeoutMS * time.Millisecond

// serverWorkers is the query worker pool of every server: one per core
// of the 2-core host the benchmark is sized for.
const serverWorkers = 2

// indexShards is the shard count of every single-process index, and the
// group count of dist_topk — the same hash partition either way.
const indexShards = 2

// churnMaxDelta is churn_mix's LivePolicy.MaxDelta: a shard rebuilds in
// the background every 250 pending writes, so a window of churnWindowOps
// operations holds one rebuild of each shard (see workloads.go).
const churnMaxDelta = 250

// churnBurstWrites is how many durable writes churn_mix's set-up applies
// between first boot and reopen: eight rebuild cycles, and a 2,000-record
// WAL tail for the reopen to replay.
const churnBurstWrites = 2000

// stack is one running instance of the serving tier, listening on
// 127.0.0.1 and reachable only through url.
type stack struct {
	url string
	// idx and srv are the served index and its tqserve core; nil on
	// dist_topk's frontend, whose corpus lives in backends.
	idx      *trajcover.LiveShardedIndex
	srv      *server.Server
	backends []*stack
	fe       *dist.Frontend
	// churn is the write-stream state churn_mix's set-up burst left; the
	// timed phase continues it.
	churn *churn
	stops []func()
}

// close stops listeners, worker pools and logs, newest first.
func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

func liveOptions(shards int, pol trajcover.LivePolicy) trajcover.LiveShardOptions {
	return trajcover.LiveShardOptions{
		Shards: shards,
		Index:  trajcover.IndexOptions{Ordering: trajcover.ZOrdering},
		Policy: pol,
	}
}

// listen serves h on a fresh loopback port until the returned stop.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close() // open keep-alive connections are the benchmark's own
		<-done
	}, nil
}

// serveIndex wraps idx in the tqserve core and listens.
func (s *stack) serveIndex(idx *trajcover.LiveShardedIndex, cacheBytes int64) error {
	s.idx = idx
	s.srv = server.New(idx, server.Config{
		Workers:          serverWorkers,
		DefaultTimeout:   serverTimeout,
		MaxTimeout:       serverTimeout,
		ResultCacheBytes: cacheBytes,
	})
	s.stops = append(s.stops, s.srv.Close)
	url, stop, err := listen(s.srv.Handler())
	if err != nil {
		return err
	}
	s.url = url
	s.stops = append(s.stops, stop)
	return nil
}

// setupScan is topk_scan's set-up: build the live index in memory, cache
// off.
func setupScan(in *inputs, _ string, _ float64) (*stack, error) {
	idx, err := trajcover.NewLiveShardedIndex(in.users, liveOptions(indexShards, trajcover.LivePolicy{}))
	if err != nil {
		return nil, err
	}
	s := &stack{}
	if err := s.serveIndex(idx, 0); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// setupHot is hot_repeat's set-up, the `tqserve -snapshot f -mmap` boot:
// build, write a TQLIVE01 snapshot, map it, and serve with tqserve's
// default 64 MiB result cache.
func setupHot(in *inputs, dir string, _ float64) (*stack, error) {
	built, err := trajcover.NewLiveShardedIndex(in.users, liveOptions(indexShards, trajcover.LivePolicy{}))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "corpus.tqlive")
	if err := writeSnapshot(built, path); err != nil {
		return nil, err
	}
	idx, err := trajcover.OpenMappedLiveSnapshot(path, trajcover.LivePolicy{})
	if err != nil {
		return nil, err
	}
	s := &stack{}
	if err := s.serveIndex(idx, 64<<20); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func writeSnapshot(idx *trajcover.LiveShardedIndex, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = idx.WriteSnapshot(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupChurn is churn_mix's set-up, a tqserve restart with history:
// first boot (bootstrap build + checkpoint), a burst of durable writes,
// a clean close, and a reopen that restores the checkpoint and replays
// the WAL tail.
func setupChurn(in *inputs, dir string, scale float64) (*stack, error) {
	pol := trajcover.LivePolicy{MaxDelta: churnMaxDelta}
	wopts := trajcover.WALOptions{Dir: filepath.Join(dir, "wal"), Sync: trajcover.WALSyncAlways}
	bootstrapped := false
	open := func() (*trajcover.LiveShardedIndex, error) {
		return trajcover.OpenLiveShardedIndex(wopts, pol, func() (*trajcover.LiveShardedIndex, error) {
			bootstrapped = true
			return trajcover.NewLiveShardedIndex(in.users, liveOptions(indexShards, pol))
		})
	}
	first, err := open()
	if err != nil {
		return nil, err
	}
	// The burst is the head of the per-client streams the timed phase
	// continues, applied straight to the index: 60 % inserts, 40 %
	// deletes, every one fsynced.
	burst := newChurn(in)
	for i := 0; i < int(churnBurstWrites*scale); i++ {
		c := i % loadClients
		var err error
		if i%5 < 3 {
			err = first.Insert(burst.nextInsert(c))
		} else {
			_, err = first.Delete(burst.nextDelete(c))
		}
		if err != nil {
			first.Close()
			return nil, fmt.Errorf("set-up write %d: %w", i, err)
		}
	}
	if err := first.Close(); err != nil {
		return nil, err
	}

	bootstrapped = false
	idx, err := open()
	if err != nil {
		return nil, err
	}
	s := &stack{churn: burst}
	s.stops = append(s.stops, func() { _ = idx.Close() }) // the run is over; nothing reads the log again
	if bootstrapped {
		s.close()
		return nil, fmt.Errorf("reopen rebuilt the corpus instead of restoring the checkpoint")
	}
	if err := s.serveIndex(idx, 0); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// setupDist is dist_topk's set-up: the corpus split by dist.RouteID over
// two single-shard backends — the trees topk_scan's two shards hold —
// behind a scatter-gather frontend, waited on until it reports healthy.
func setupDist(in *inputs, _ string, _ float64) (*stack, error) {
	parts := make([][]*trajcover.Trajectory, indexShards)
	for _, u := range in.users {
		g := dist.RouteID(uint32(u.ID), indexShards)
		parts[g] = append(parts[g], u)
	}
	s := &stack{}
	var groups []dist.Group
	for _, part := range parts {
		idx, err := trajcover.NewLiveShardedIndex(part, liveOptions(1, trajcover.LivePolicy{}))
		if err != nil {
			s.close()
			return nil, err
		}
		b := &stack{}
		if err := b.serveIndex(idx, 0); err != nil {
			b.close()
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
		s.stops = append(s.stops, b.close)
		groups = append(groups, dist.Group{Members: []string{b.url}})
	}

	fe, err := dist.NewFrontend(dist.FrontendConfig{
		Groups:         groups,
		RPCTimeout:     serverTimeout,
		DefaultTimeout: serverTimeout,
		MaxTimeout:     serverTimeout,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.fe = fe
	s.stops = append(s.stops, fe.Close)
	url, stop, err := listen(fe.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = url
	s.stops = append(s.stops, stop)
	if err := waitHealthy(url); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls the frontend's /healthz until every group reports ok.
func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := healthStatus(url)
		if err == nil && status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("frontend never became healthy: status %q, %v", status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func healthStatus(url string) (string, error) {
	resp, err := http.Get(url + server.PathHealth)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var h dist.FrontendHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", err
	}
	return h.Status, nil
}
