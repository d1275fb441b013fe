package main

// The `serve` experiment: end-to-end throughput of the tqserve
// worker-pool HTTP front end — the ROADMAP's SLO metric measured at the
// system boundary instead of the library call. A live sharded index is
// wrapped in internal/server, bound to a loopback listener, and hammered
// with concurrent /v1/topk and /v1/servicevalues POSTs; the series sweep
// the worker-pool size. On one core the series stay roughly flat and
// sit below the library-level `thrpt` numbers by the HTTP+JSON tax; on n
// cores the pool should scale like the batch executor underneath it. It
// lives here rather than in internal/bench because internal/server
// fronts the public package (like the mmaptier experiment's snapshots).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/server"
)

// serveRequests is how many requests one measurement fires per series.
const serveRequests = 16

func expServe(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "serve", Title: "tqserve worker-pool front end throughput vs pool size (NYT)",
		XLabel: "workers", YLabel: "requests/sec",
		Series: []bench.Series{{Method: "topk"}, {Method: "servicevalues"}},
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
	// Per-request workers stay 1 so concurrency comes from the pool, not
	// from intra-request parallelism fighting it for cores.
	topkBody := mustJSON(server.QueryRequest{Facilities: fjs, K: 8, Psi: ctx.Cfg.Psi, Workers: 1, TimeoutMS: 60_000})
	svBody := mustJSON(server.QueryRequest{Facilities: fjs, Psi: ctx.Cfg.Psi, Workers: 1, TimeoutMS: 60_000})

	for _, w := range []int{1, 2, 4, 8} {
		srv := server.New(idx, server.Config{
			Workers:        w,
			QueueDepth:     4 * serveRequests,
			DefaultTimeout: time.Minute,
			MaxTimeout:     time.Minute,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		url := "http://" + ln.Addr().String()
		client := &http.Client{Timeout: 2 * time.Minute}

		var qerr error
		fire := func(path string, body []byte) float64 {
			clients := w
			if clients > 4 {
				clients = 4
			}
			return ctx.Time(func() {
				if err := hammer(client, url+path, body, serveRequests, clients); err != nil {
					qerr = err
				}
			})
		}
		topkSec := fire(server.PathTopK, topkBody)
		svSec := fire(server.PathServiceValues, svBody)

		hs.Close()
		srv.Close()
		client.CloseIdleConnections()
		if qerr != nil {
			return nil, qerr
		}
		rate := func(sec float64) float64 {
			if sec <= 0 {
				return 0
			}
			return serveRequests / sec
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(w))
		t.Series[0].Y = append(t.Series[0].Y, rate(topkSec))
		t.Series[1].Y = append(t.Series[1].Y, rate(svSec))
	}
	return t, nil
}

// hammer fires n POSTs at the URL from `clients` concurrent goroutines
// and fails on any non-200.
func hammer(client *http.Client, url string, body []byte, n, clients int) error {
	if clients < 1 {
		clients = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	per := n / clients
	extra := n % clients
	for c := 0; c < clients; c++ {
		reqs := per
		if c < extra {
			reqs++
		}
		wg.Add(1)
		go func(reqs int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errs <- fmt.Errorf("serve: %s returned %d", url, resp.StatusCode)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					resp.Body.Close()
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(reqs)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
