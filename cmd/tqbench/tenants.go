package main

// The `tenants` experiment: what per-tenant admission control buys the
// quiet tenant. A multi-tenant front end hosts two tenants over the
// same NYT corpus; the noisy tenant floods /v1/insert from an
// increasing number of client goroutines while the quiet tenant runs a
// fixed batch of top-k queries. The noisy tenant's writes_per_sec
// override pins its token bucket, so the "noisy accepted" series stays
// flat at the configured rate no matter how many clients it adds — its
// extra offered load is turned into 429s at admission instead of into
// index work — and the quiet tenant's query rate holds. Lives here
// rather than in internal/bench because internal/server and the tenant
// registry front the public package.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/server"
	"github.com/trajcover/trajcover/internal/tenant"
)

const (
	// tenantsRequests is the quiet tenant's measured query batch per
	// series point.
	tenantsRequests = 16
	// tenantsWriteRate is the noisy tenant's writes_per_sec override —
	// the ceiling its accepted series must hug.
	tenantsWriteRate = 25.0
)

func expTenants(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "tenants", Title: "per-tenant admission control: noisy tenant pinned to its write quota, quiet tenant unharmed (NYT)",
		XLabel: "noisy clients", YLabel: "requests/sec",
		Series: []bench.Series{
			{Method: "quiet queries"},
			{Method: "noisy writes accepted"},
			{Method: "noisy writes offered"},
		},
	}
	users := ctx.Users("nyt", datagen.NYT1Day)
	routes := ctx.Routes("ny", 128, 32)
	fjs := server.FacilitiesJSON(routes)
	queryBody := mustJSON(server.QueryRequest{Facilities: fjs, K: 8, Psi: ctx.Cfg.Psi, Workers: 1, TimeoutMS: 60_000})

	for _, noisyClients := range []int{1, 4, 8} {
		quiet, accepted, offered, err := tenantRatesUnder(ctx, users.All, queryBody, noisyClients)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(noisyClients))
		t.Series[0].Y = append(t.Series[0].Y, quiet)
		t.Series[1].Y = append(t.Series[1].Y, accepted)
		t.Series[2].Y = append(t.Series[2].Y, offered)
	}
	return t, nil
}

// tenantRatesUnder boots a two-tenant in-memory server with the noisy
// tenant's write bucket pinned to tenantsWriteRate, runs noisyClients
// insert-flooding goroutines against it, and times the quiet tenant's
// query batch. It returns the quiet tenant's achieved queries/sec and
// the noisy tenant's accepted and offered writes/sec over the same
// window.
func tenantRatesUnder(ctx *bench.Context, users []*trajcover.Trajectory, queryBody []byte, noisyClients int) (quiet, accepted, offered float64, err error) {
	opts := trajcover.IndexOptions{
		Ordering:    trajcover.ZOrdering,
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
		Policy:      trajcover.LivePolicy{Manual: true},
	}
	reg, err := trajcover.OpenTenantRegistry(trajcover.TenantRegistryOptions{Index: opts})
	if err != nil {
		return 0, 0, 0, err
	}
	defer reg.Close()
	for _, id := range []string{"quiet", "noisy"} {
		idx, err := trajcover.NewIndex(users, opts)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := reg.Bind(id, idx); err != nil {
			return 0, 0, 0, err
		}
	}
	srv := server.NewMulti(reg, server.Config{
		Workers:        2,
		QueueDepth:     8,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	})
	srv.SetOverrides(&tenant.Overrides{Tenants: map[string]tenant.Limits{
		"noisy": {WritesPerSec: tenantsWriteRate},
	}})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()

	// The noisy flood: fresh-ID inserts as fast as each client can push,
	// a short honor-the-429 backoff when the bucket is dry.
	var (
		stop       atomic.Bool
		nAccepted  atomic.Int64
		nOffered   atomic.Int64
		nextID     atomic.Int64
		floodError atomic.Value
		wg         sync.WaitGroup
	)
	nextID.Store(10_000_000)
	for c := 0; c < noisyClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				body := []byte(fmt.Sprintf(`{"id":%d,"points":[[100,100],[200,200]]}`, nextID.Add(1)))
				code, err := postTenant(client, url+server.PathInsert, "noisy", body)
				if err != nil {
					floodError.Store(err)
					return
				}
				nOffered.Add(1)
				switch code {
				case http.StatusOK:
					nAccepted.Add(1)
				case http.StatusTooManyRequests:
					time.Sleep(5 * time.Millisecond)
				default:
					floodError.Store(fmt.Errorf("tenants: noisy insert returned %d", code))
					return
				}
			}
		}()
	}

	// Let the flood drain the bucket's initial burst (burst == rate, one
	// second of tokens) so the measured window sees the steady-state
	// refill rate, not burst + refill.
	time.Sleep(1500 * time.Millisecond)
	baseAccepted, baseOffered := nAccepted.Load(), nOffered.Load()

	start := time.Now()
	var qerr error
	quietSec := ctx.Time(func() {
		for i := 0; i < tenantsRequests; i++ {
			code, err := postTenant(client, url+server.PathTopK, "quiet", queryBody)
			if err != nil {
				qerr = err
				return
			}
			if code != http.StatusOK {
				qerr = fmt.Errorf("tenants: quiet topk returned %d", code)
				return
			}
		}
	})
	wall := time.Since(start).Seconds()
	stop.Store(true)
	wg.Wait()
	if qerr != nil {
		return 0, 0, 0, qerr
	}
	if ferr, ok := floodError.Load().(error); ok && ferr != nil {
		return 0, 0, 0, ferr
	}
	if quietSec > 0 {
		quiet = tenantsRequests / quietSec
	}
	if wall > 0 {
		accepted = float64(nAccepted.Load()-baseAccepted) / wall
		offered = float64(nOffered.Load()-baseOffered) / wall
	}
	return quiet, accepted, offered, nil
}

// postTenant fires one tenant-tagged POST and reports the status code.
func postTenant(client *http.Client, url, tid string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tid)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cerr != nil {
		return 0, cerr
	}
	return resp.StatusCode, nil
}
