package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/rescache"
	"github.com/trajcover/trajcover/internal/server"
	"github.com/trajcover/trajcover/internal/tenant"
	"github.com/trajcover/trajcover/internal/wal"
)

// recorder remembers the operations a stream hands out, so the traced
// sample can be replayed against the layers directly.
type recorder struct {
	inner opStream
	ops   [loadClients][]op
}

func (r *recorder) next(c int) op {
	o := r.inner.next(c)
	r.ops[c] = append(r.ops[c], o)
	return o
}

// measureTraced is the traced run: the per-layer metrics. It sets up once,
// measures a shorter untraced phase for the client-side tails and the
// server's own counters, then replays a fixed sample twice — over HTTP
// for one client span per request, and directly against each layer's
// exported functions in request order for the spans beneath it.
func measureTraced(sp *spec, cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	calib := []float64{calibrateMS()}
	b, err := prepare(sp, cfg, 1, res)
	if err != nil {
		return nil, err
	}
	defer b.close()

	// Untraced phase, with the server-side counters read around it.
	before := b.readServerCounters()
	deltas := b.pollDeltaLen()
	p := b.timedPhase(cfg.seconds / 2)
	deltaLens := deltas.stop()
	untraced := p.samples()
	res.count(untraced)

	// The timings a user of the tier sees first. On this kind of host they
	// move by a quarter between runs of the same program, so they are
	// recorded here and not gated; see README.md.
	best := fastestMS(untraced, cfg.bodies)
	res.set("client.req_best_ms", best, "ms")
	res.set("client.req_p50_ms", p.medianOver(func(w *window) float64 { return quantile(latenciesMS(w.samples, false), 0.5) }), "ms")
	res.set("client.req_per_s", p.medianOver((*window).perSecond), "1/s")
	res.set("runtime.cpu_ms_per_req", p.medianOver(func(w *window) float64 {
		return float64(w.to.cpu-w.from.cpu) / 1e6 / w.ops()
	}), "ms")

	reads, writes := latenciesMS(untraced, false), latenciesMS(untraced, true)
	res.set("client.req_p90_ms", quantile(reads, 0.90), "ms")
	res.set("client.req_p99_ms", quantile(reads, 0.99), "ms")
	res.set("client.req_max_ms", quantile(reads, 1), "ms")
	res.set("client.write_p50_ms", quantile(writes, 0.5), "ms")
	res.set("client.samples", float64(len(untraced)), "count")
	gcs := p.windows[len(p.windows)-1].to.gcs - p.windows[0].from.gcs
	res.set("runtime.gc_cycles", float64(gcs), "count")
	res.set("query.delta_len_mean", mean(deltaLens), "count")
	res.set("shard.delta_len_max", maxOf(deltaLens), "count")

	// Traced sample over HTTP.
	rec := &recorder{inner: b.stream}
	feBefore := b.readFrontendCounters()
	walBefore := b.readWAL()
	traced := runWindow(b.clients, rec, b.ops(sp.traceOps)/loadClients)
	res.count(traced.samples)
	after := b.readServerCounters()
	b.finish(res)

	n := traced.ops()
	res.set("trace.overhead_ratio", fastestMS(traced.samples, cfg.bodies)/best, "ratio")
	res.set("client.failed", float64(res.Failed), "count")
	var in, out float64
	for _, s := range traced.samples {
		in += float64(s.sent)
		out += float64(s.received)
	}
	res.set("server.bytes_in_per_req", in/n, "B")
	res.set("server.bytes_out_per_req", out/n, "B")
	res.set("server.rejected", float64(after.rejected-before.rejected), "count")
	res.set("server.deadline_exceeded", float64(after.deadline-before.deadline), "count")
	res.set("shard.compactions", float64(after.compactions-before.compactions), "count")
	hitRatio := 0.0
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		hitRatio = float64(after.hits-before.hits) / float64(lookups)
	}
	res.set("rescache.hit_ratio", hitRatio, "ratio")
	res.set("rescache.bytes", float64(after.cacheBytes), "B")

	fe := b.readFrontendCounters()
	res.set("dist.bound_rpcs_per_req", float64(fe.BoundRPCs-feBefore.BoundRPCs)/n, "count")
	res.set("dist.exact_rpcs_per_req", float64(fe.ExactRPCs-feBefore.ExactRPCs)/n, "count")
	res.set("dist.pruned_per_req", float64(fe.PrunedFacilities-feBefore.PrunedFacilities)/n, "count")
	res.set("dist.failovers", float64(fe.Failovers-feBefore.Failovers), "count")

	walNow := b.readWAL()
	records := float64(walNow.Records - walBefore.Records)
	res.set("wal.records", records, "count")
	res.set("wal.fsyncs", float64(walNow.Fsyncs-walBefore.Fsyncs), "count")
	res.set("wal.bytes_per_record", ratio(float64(walNow.Bytes-walBefore.Bytes), records), "B")

	// The same sample again, layer by layer.
	tr := newTracer()
	rp, err := newReplayer(b, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	if err := rp.replaySample(rec, traced); err != nil {
		return nil, fmt.Errorf("%s direct replay: %w", sp.name, err)
	}
	self := tr.selfTimes()
	us := func(name string) float64 { return float64(tr.medianDuration(name)) / 1e3 }
	res.set("server.decode_us", us("server.decode"), "us")
	res.set("server.hash_us", us("server.hash"), "us")
	res.set("server.encode_us", us("server.encode"), "us")
	res.set("tenant.gate_ns", float64(tr.medianDuration("tenant.gate")), "ns")
	res.set("rescache.get_ns", float64(tr.medianDuration("rescache.get")), "ns")
	res.set("rescache.put_ns", rp.putNS, "ns")
	res.set("query.topk_ms", us("query.topk")/1e3, "ms")
	res.set("shard.insert_us", us("shard.insert"), "us")
	res.set("shard.delete_us", us("shard.delete"), "us")
	res.set("wal.append_us", us("wal.append"), "us")
	rootSelf := float64(tr.medianOf("client.request", self)) / 1e6
	if b.st.fe != nil {
		res.set("dist.frontend_self_ms", rootSelf, "ms")
		res.set("server.http_self_ms", 0, "ms")
	} else {
		res.set("dist.frontend_self_ms", 0, "ms")
		res.set("server.http_self_ms", rootSelf, "ms")
	}
	res.set("query.nodes_visited_per_req", ratio(float64(rp.work.NodesVisited), float64(rp.topKs)), "count")
	res.set("query.entries_scored_per_req", ratio(float64(rp.work.EntriesScored), float64(rp.topKs)), "count")
	res.set("query.relaxations_per_req", ratio(float64(rp.work.Relaxations), float64(rp.topKs)), "count")
	// Every list evaluation the query layer counts as a visited node
	// acquires exactly one StopSet (query.evalNodeList, Epoch.deltaService).
	res.set("service.stopset_builds_per_req", ratio(float64(rp.work.NodesVisited), float64(rp.topKs)), "count")
	res.set("trace.spans", float64(len(tr.spans)), "count")

	if err := rp.afterSample(res); err != nil {
		return nil, err
	}
	if err := b.indexLayers(res); err != nil {
		return nil, err
	}
	if err := corpusLayers(cfg, res); err != nil {
		return nil, err
	}
	calib = append(calib, calibrateMS())
	res.set("host.calib_ms", mean(calib), "ms")
	res.set("runtime.rss_peak_mb", rssPeakMB(), "MB")
	res.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")

	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// serverCounters sums what the servers of a stack count themselves.
type serverCounters struct {
	rejected, deadline, compactions uint64
	hits, misses                    uint64
	cacheBytes                      int64
}

func (b *bench) servers() []*stack {
	if b.st.fe != nil {
		return b.st.backends
	}
	return []*stack{b.st}
}

func (b *bench) readServerCounters() serverCounters {
	var c serverCounters
	for _, s := range b.servers() {
		st := s.srv.Stats()
		for _, ep := range st.Endpoints {
			c.rejected += ep.Rejected
			c.deadline += ep.DeadlineExceeded
		}
		for _, sh := range st.Index.PerShard {
			c.compactions += sh.Compactions
		}
		if rc := st.ResultCache; rc != nil {
			c.hits += rc.Hits
			c.misses += rc.Misses
			c.cacheBytes += rc.Bytes
		}
	}
	return c
}

// readFrontendCounters is all zeros where no frontend runs.
func (b *bench) readFrontendCounters() dist.FrontendStats {
	if b.st.fe == nil {
		return dist.FrontendStats{}
	}
	return b.st.fe.Stats()
}

func (b *bench) readWAL() trajcover.WALStats {
	if b.st.idx == nil {
		return trajcover.WALStats{}
	}
	st, _ := b.st.idx.WALStats() // zero without a WAL
	return st
}

// deltaPoller samples the served index's pending-write count while a
// phase runs: a hundred cheap reads a second, in the traced run only.
type deltaPoller struct {
	done chan struct{}
	wg   sync.WaitGroup
	lens []float64
}

func (b *bench) pollDeltaLen() *deltaPoller {
	p := &deltaPoller{done: make(chan struct{})}
	idx := b.st.idx
	if idx == nil {
		return p
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				for _, sh := range idx.Stats() {
					p.lens = append(p.lens, float64(sh.DeltaLen+sh.Tombstones))
				}
			}
		}
	}()
	return p
}

func (p *deltaPoller) stop() []float64 {
	close(p.done)
	p.wg.Wait()
	return p.lens
}

// replayer makes the direct calls of the traced sample: for each request
// of the sample, the exported functions the request path goes through,
// each in its own span under the request's HTTP span.
type replayer struct {
	b    *bench
	tr   *tracer
	gate tenant.Gate
	// cache stands in for the server's result cache, which is not
	// exported: the same keys and the same answers.
	cache *rescache.Cache
	putNS float64
	// scratch and log take the sample's writes: the corpus without a WAL,
	// and a WAL without an index, so each layer is timed alone.
	scratch *trajcover.LiveShardedIndex
	log     *wal.Log
	logDir  string

	work  trajcover.QueryMetrics // summed over the sample's direct TopK calls
	topKs int
}

func newReplayer(b *bench, tr *tracer) (*replayer, error) {
	rp := &replayer{b: b, tr: tr}
	if b.st.srv != nil && b.st.srv.Stats().ResultCache != nil {
		rp.cache = rescache.New(64 << 20)
		var puts []float64
		for i, body := range b.in.bodies {
			key, err := cacheKey(body, b.st.idx.Version())
			if err != nil {
				return nil, err
			}
			t := time.Now()
			rp.cache.Put(key, b.want[i])
			puts = append(puts, float64(time.Since(t)))
		}
		rp.putNS = median(puts)
	}
	if b.st.churn != nil {
		var err error
		rp.scratch, err = trajcover.NewLiveShardedIndex(b.in.users, liveOptions(indexShards, trajcover.LivePolicy{Manual: true}))
		if err != nil {
			return nil, err
		}
		rp.logDir = filepath.Join(b.dir, "direct-wal")
		rp.log, err = wal.Open(rp.logDir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.log != nil {
		_ = rp.log.Close() // scratch log; nothing depends on its contents
	}
}

func cacheKey(body []byte, version uint64) (rescache.Key, error) {
	req, _, q, err := server.DecodeQueryRequest(body, true)
	if err != nil {
		return rescache.Key{}, err
	}
	return rescache.Key{Hash: server.CanonicalQueryHash(server.PathTopK, req, req.K, q), Tenant: "default", Version: version}, nil
}

// replaySample walks the recorded operations in the order the clients
// sent them — client 0's first, client 1's first, client 0's second … —
// giving each its HTTP span as the root and the direct calls beneath.
func (rp *replayer) replaySample(rec *recorder, w window) error {
	per := len(w.samples) / loadClients
	for i := 0; i < per; i++ {
		for c := 0; c < loadClients; c++ {
			req := i*loadClients + c + 1
			s := w.samples[c*per+i]
			root := rp.tr.add(req, 0, "client.request", s.start, s.end)
			direct := rp.tr.open(req, root, "direct.request")
			err := rp.replay(req, direct, rec.ops[c][i])
			rp.tr.close(direct)
			if err != nil {
				return fmt.Errorf("request %d (%s): %w", req, rec.ops[c][i].path, err)
			}
		}
	}
	return nil
}

func (rp *replayer) replay(req, parent int, o op) error {
	tr := rp.tr
	var err error
	admit := func(write bool) {
		tr.call(req, parent, "tenant.gate", func() {
			rp.gate.Admit(tenant.Limits{})
			if write {
				rp.gate.AdmitWrite(tenant.Limits{})
			}
			rp.gate.Started()
			rp.gate.Finished()
		})
	}
	switch o.path {
	case server.PathTopK:
		var qr *server.QueryRequest
		var facs []*trajcover.Facility
		var q trajcover.Query
		tr.call(req, parent, "server.decode", func() { qr, facs, q, err = server.DecodeQueryRequest(o.body, true) })
		if err != nil {
			return err
		}
		var hash [32]byte
		tr.call(req, parent, "server.hash", func() { hash = server.CanonicalQueryHash(server.PathTopK, qr, qr.K, q) })
		admit(false)
		if rp.cache != nil {
			hit := false
			tr.call(req, parent, "rescache.get", func() {
				_, hit = rp.cache.Get(rescache.Key{Hash: hash, Tenant: "default", Version: rp.b.st.idx.Version()})
			})
			if !hit {
				return fmt.Errorf("direct cache lookup missed")
			}
			return nil // a hit answers with the stored bytes: no query, no encode
		}
		var ranked []trajcover.Ranked
		if rp.b.st.fe != nil {
			ranked, err = rp.replayScatter(req, parent, facs, qr.K, q)
		} else {
			tr.call(req, parent, "query.topk", func() {
				var m trajcover.QueryMetrics
				ranked, m, err = rp.b.st.idx.TopKWithMetrics(facs, qr.K, q)
				rp.work.NodesVisited += m.NodesVisited
				rp.work.EntriesScored += m.EntriesScored
				rp.work.Relaxations += m.Relaxations
				rp.topKs++
			})
		}
		if err != nil {
			return err
		}
		tr.call(req, parent, "server.encode", func() { server.MarshalTopKResponse(ranked) })

	case server.PathInsert:
		var u *trajcover.Trajectory
		tr.call(req, parent, "server.decode", func() { _, u, err = server.DecodeInsertRequest(o.body) })
		if err != nil {
			return err
		}
		admit(true)
		tr.call(req, parent, "wal.append", func() { err = rp.appendDurable(wal.Record{Op: wal.OpInsert, Trajectory: u}) })
		if err != nil {
			return err
		}
		tr.call(req, parent, "shard.insert", func() { err = rp.scratch.Insert(u) })
		if err != nil {
			return err
		}
		tr.call(req, parent, "server.encode", func() { mustJSON(server.InsertResponse{Len: rp.scratch.Len()}) })

	case server.PathDelete:
		var dr *server.DeleteRequest
		tr.call(req, parent, "server.decode", func() { dr, err = server.DecodeDeleteRequest(o.body) })
		if err != nil {
			return err
		}
		admit(true)
		id := trajcover.ID(dr.ID)
		tr.call(req, parent, "wal.append", func() { err = rp.appendDurable(wal.Record{Op: wal.OpDelete, ID: id}) })
		if err != nil {
			return err
		}
		found := false
		tr.call(req, parent, "shard.delete", func() { found, err = rp.scratch.Delete(id) })
		if err == nil && !found {
			err = fmt.Errorf("direct delete %d: not found", id)
		}
		if err != nil {
			return err
		}
		tr.call(req, parent, "server.encode", func() { mustJSON(server.DeleteResponse{Found: found}) })
	}
	return nil
}

func (rp *replayer) appendDurable(rec wal.Record) error {
	lsn, err := rp.log.Append(rec)
	if err != nil {
		return err
	}
	return rp.log.WaitDurable(lsn)
}

// replayScatter is the query work a frontend request causes on the
// backends, without the RPCs: every group's upper bounds, and — since
// hash partitioning lets the frontend prune nothing — every group's
// exact values for every facility. What is left of the HTTP span is the
// frontend's own cost: RPC round trips, re-marshalling and the merge.
func (rp *replayer) replayScatter(req, parent int, facs []*trajcover.Facility, k int, q trajcover.Query) ([]trajcover.Ranked, error) {
	ctx := context.Background()
	var err error
	rp.tr.call(req, parent, "query.upperbounds", func() {
		for _, be := range rp.b.st.backends {
			if _, e := be.idx.UpperBoundsCtx(ctx, facs, q); e != nil {
				err = e
			}
		}
	})
	sums := make([]float64, len(facs))
	rp.tr.call(req, parent, "query.servicevalues", func() {
		for _, be := range rp.b.st.backends {
			vals, e := be.idx.ServiceValuesCtx(ctx, facs, q, 1)
			if e != nil {
				err = e
				return
			}
			for i, v := range vals {
				sums[i] += v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	ranked := make([]trajcover.Ranked, len(facs))
	for i, f := range facs {
		ranked[i] = trajcover.Ranked{Facility: f, Service: sums[i]}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Service > ranked[j].Service })
	return ranked[:k], nil
}

// afterSample reports what the scratch structures hold once the sample
// has been replayed: the fold of the direct writes, and a replay of the
// direct log.
func (rp *replayer) afterSample(res *result) error {
	compactS, replayS := 0.0, 0.0
	if rp.scratch != nil {
		t := time.Now()
		if err := rp.scratch.Compact(); err != nil {
			return err
		}
		compactS = time.Since(t).Seconds()
		if err := rp.log.Close(); err != nil {
			return err
		}
		rp.log = nil
		t = time.Now()
		if _, _, err := wal.Replay(rp.logDir, func(wal.Record) error { return nil }); err != nil {
			return err
		}
		replayS = time.Since(t).Seconds()
	}
	res.set("shard.compact_s", compactS, "s")
	res.set("wal.replay_s", replayS, "s")

	// One-facility exact RPCs straight to a backend: the unit the
	// frontend pays 256 of per request.
	rpcUS := 0.0
	if rp.b.st.fe != nil {
		var lat []float64
		url := rp.b.st.backends[0].url + server.PathServiceValues
		for _, f := range rp.b.in.facs[0] {
			body := topKBody([]*trajcover.Facility{f}, 0)
			t := time.Now()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return fmt.Errorf("direct servicevalues RPC: status %d, %v", resp.StatusCode, err)
			}
			lat = append(lat, float64(time.Since(t))/1e3)
		}
		rpcUS = median(lat)
	}
	res.set("dist.rpc_p50_us", rpcUS, "us")
	return nil
}
