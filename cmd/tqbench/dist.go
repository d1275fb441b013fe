package main

// The `dist` experiment: what the distributed serving tier costs. The
// same NYT corpus is served two ways — one tqserve core holding
// everything, and a scatter-gather frontend over n shard-group backends
// (in-process HTTP, so the deltas are protocol cost, not network) — and
// hammered with the same topk requests. The frontend's answers are
// byte-identical to the single process (that's the dist package's
// property suite); this experiment records the throughput tax of the
// extra hop and `exchanges/query`, what a read costs on the wire (one
// request per group, whatever N and k). It lives here rather than in
// internal/bench because internal/dist fronts the server wire format.

import (
	"fmt"
	"net"
	"net/http"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/server"
)

func expDist(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "dist", Title: "distributed frontend: scatter-gather topk vs one process (NYT)",
		XLabel: "shard groups", YLabel: "requests/sec",
		Series: []bench.Series{
			{Method: "single-process"},
			{Method: "frontend"},
			{Method: "exchanges/query (n)"},
		},
	}
	users := ctx.Users("nyt", datagen.NYT1Day)
	routes := ctx.Routes("ny", 64, 16)
	fjs := server.FacilitiesJSON(routes)
	topkBody := mustJSON(server.QueryRequest{Facilities: fjs, K: 8, Psi: ctx.Cfg.Psi, Workers: 1, TimeoutMS: 60_000})

	newBackend := func(us []*trajcover.Trajectory) (*server.Server, *http.Server, string, error) {
		idx, err := trajcover.NewLiveShardedIndex(us, trajcover.LiveShardOptions{
			Index:  trajcover.IndexOptions{Ordering: trajcover.ZOrdering},
			Policy: trajcover.LivePolicy{Manual: true},
		})
		if err != nil {
			return nil, nil, "", err
		}
		srv := server.New(idx, server.Config{
			Workers:        2,
			QueueDepth:     4 * serveRequests,
			DefaultTimeout: time.Minute,
			MaxTimeout:     time.Minute,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, nil, "", err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return srv, hs, "http://" + ln.Addr().String(), nil
	}

	// The single-process reference: one core, the whole corpus.
	refSrv, refHS, refURL, err := newBackend(users.All)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	var qerr error
	refSec := ctx.Time(func() {
		if err := hammer(client, refURL+server.PathTopK, topkBody, serveRequests, 4); err != nil {
			qerr = err
		}
	})
	refHS.Close()
	refSrv.Close()
	if qerr != nil {
		return nil, qerr
	}

	rate := func(sec float64) float64 {
		if sec <= 0 {
			return 0
		}
		return serveRequests / sec
	}
	for _, n := range []int{1, 2, 4} {
		// Partition exactly as the frontend routes writes, so each
		// backend is a true shard-group owner.
		parts := make([][]*trajcover.Trajectory, n)
		for _, u := range users.All {
			g := dist.RouteID(uint32(u.ID), n)
			parts[g] = append(parts[g], u)
		}
		var groups []dist.Group
		var srvs []*server.Server
		var hss []*http.Server
		for g := 0; g < n; g++ {
			srv, hs, url, err := newBackend(parts[g])
			if err != nil {
				return nil, err
			}
			srvs, hss = append(srvs, srv), append(hss, hs)
			groups = append(groups, dist.Group{Members: []string{url}})
		}
		fe, err := dist.NewFrontend(dist.FrontendConfig{
			Groups:         groups,
			DefaultTimeout: time.Minute,
			MaxTimeout:     time.Minute,
			RPCTimeout:     time.Minute,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		feHS := &http.Server{Handler: fe.Handler()}
		go feHS.Serve(ln)
		feURL := "http://" + ln.Addr().String()

		feSec := ctx.Time(func() {
			if err := hammer(client, feURL+server.PathTopK, topkBody, serveRequests, 4); err != nil {
				qerr = err
			}
		})
		stats := fe.Stats()
		feHS.Close()
		fe.Close()
		for i := range hss {
			hss[i].Close()
			srvs[i].Close()
		}
		client.CloseIdleConnections()
		if qerr != nil {
			return nil, qerr
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		t.Series[0].Y = append(t.Series[0].Y, rate(refSec))
		t.Series[1].Y = append(t.Series[1].Y, rate(feSec))
		t.Series[2].Y = append(t.Series[2].Y, float64(stats.Exchanges)/float64(max(stats.Requests, 1)))
	}
	return t, nil
}
