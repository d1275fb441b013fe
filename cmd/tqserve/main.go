// Command tqserve is the long-running HTTP front end over a live
// trajectory-coverage index: slot admission (each request runs on its
// own handler, -workers at once; 429 + Retry-After past -queue waiting),
// per-request deadlines propagated into the cancellation-aware query
// executor, and graceful drain on SIGTERM/SIGINT. See internal/server
// for the endpoints and ARCHITECTURE.md "Serving front end" for the
// design.
//
// Usage:
//
//	tqserve -addr :8080 -snapshot live.tqlive
//	tqserve -addr :8080 -synthetic 50000 -shards 4
//	tqserve -addr :8080 -synthetic 50000 -wal-dir /var/lib/tqserve/wal
//	tqserve -addr :8080 -tenant-root /var/lib/tqserve/tenants -overrides-file limits.yaml
//	tqserve -addr :8081 -replica-of http://127.0.0.1:8080
//	tqserve -addr :8090 -frontend -backends "http://a:8080|http://a:8081,http://b:8080"
//
// The index is either restored from a TQLIVE02 snapshot (-snapshot,
// written by Index.WriteSnapshot or GET
// /v1/snapshot on a running tqserve) or generated (-synthetic N taxi
// trips over the synthetic New York). With -wal-dir every acknowledged
// Insert/Delete is also appended to a write-ahead log there (sync
// policy from -wal-sync), and on restart the index recovers from the
// newest checkpoint in that directory plus the WAL tail — -snapshot/
// -synthetic then only seed the FIRST boot. POST /v1/checkpoint (or a
// GET /v1/snapshot download) compacts the log. Once serving:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/topk -d '{"facilities":[{"id":1,"stops":[[500,500],[800,300]]}],"k":1,"psi":300}'
//
// Multi-tenancy: -tenant-root serves one independent index per tenant,
// each with its own WAL directory <root>/<tenant>/ and checkpoint
// lineage. Requests pick their tenant with the X-Tenant header or the
// "tenant" JSON field; writes create tenants lazily, reads of unknown
// tenants are 404. -synthetic seeds the "default" tenant's first boot
// (-snapshot is single-tenant only). -overrides-file names a YAML or
// JSON document of per-tenant admission limits (max_inflight,
// max_queue, writes_per_sec, max_timeout_ms), re-read on SIGHUP and
// every -overrides-poll; an invalid rewrite keeps the previous limits
// and logs the parse error. -tenant-max-open caps concurrently open
// tenant indexes (idle ones are checkpointed and evicted LRU).
//
// Distributed serving (see internal/dist and ARCHITECTURE.md
// "Distributed serving"): a single-tenant tqserve is a replication
// primary by default — acknowledged writes feed an in-memory
// replication log (-repl-log-cap entries; 0 disables) that replicas
// tail over GET /v1/changes. -replica-of turns the process into a
// read-only replica of the primary at that base URL: it bootstraps
// from the primary's GET /v1/snapshot, replays the tail, serves reads
// from its own index (writes answer 403), and re-bootstraps by itself
// when the primary restarts. -frontend (with -backends, a
// comma-separated list of shard groups, each "primary|replica|...")
// serves the same wire API by scatter-gathering over the groups:
// writes forward to their owner group's primary, a top-k read is one
// exchange per group whose summed values are ranked by query.Results,
// and ?partial=1 opts reads into partial answers when groups are down.
// An exchange is one binary frame each way on a persistent connection
// the frontend opened once with POST /v1/exchange and upgraded to
// tqexchange/1, so a /v1/topk through the frontend costs one net/http
// request/response cycle, the client's, plus one frame round trip per
// group.
//
// On SIGTERM the server stops admitting work (healthz flips to 503 so
// load balancers drain), finishes in-flight requests up to
// -drain-timeout, and exits 0. SIGHUP reloads the overrides file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/server"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tenant"
)

func main() {
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	if err := run(os.Args[1:], os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tqserve:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing: tests drive it with their own
// signal channel and read the bound address from ready.
func run(args []string, stdout io.Writer, sig <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("tqserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		snapshot      = fs.String("snapshot", "", "serve a TQLIVE02 snapshot file")
		synthetic     = fs.Int("synthetic", 0, "serve N synthetic NYC taxi trips (when no -snapshot)")
		seed          = fs.Int64("seed", 1, "synthetic data seed")
		shards        = fs.Int("shards", 1, "shard count for -synthetic")
		partitioner   = fs.String("partitioner", "hash", "partitioner for -synthetic: hash or grid")
		workers       = fs.Int("workers", 0, "requests that run at once (0 = GOMAXPROCS)")
		queue         = fs.Int("queue", 64, "requests that may wait to run (one more => 429)")
		timeout       = fs.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTimeout    = fs.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
		maxBody       = fs.Int64("max-body", 8<<20, "request body cap in bytes")
		maxDelta      = fs.Int("maxdelta", 0, "pending writes per shard before a background rebuild (0 = default 4096)")
		drainTimeout  = fs.Duration("drain-timeout", 15*time.Second, "in-flight grace period on SIGTERM")
		walDir        = fs.String("wal-dir", "", "write-ahead log directory (empty = no durability; single-tenant)")
		walSync       = fs.String("wal-sync", "always", "WAL sync policy: always, interval, or none")
		walSyncEvery  = fs.Duration("wal-sync-interval", 100*time.Millisecond, "fsync period under -wal-sync interval")
		walSegBytes   = fs.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation size")
		walProbeMin   = fs.Duration("wal-probe-min", 100*time.Millisecond, "initial backoff of the degraded-mode recovery probe")
		walProbeMax   = fs.Duration("wal-probe-max", 5*time.Second, "backoff cap of the degraded-mode recovery probe")
		tenantRoot    = fs.String("tenant-root", "", "multi-tenant WAL root: one index + WAL dir per tenant under it")
		tenantMaxOpen = fs.Int("tenant-max-open", 0, "max concurrently open tenant indexes (0 = unlimited)")
		overridesFile = fs.String("overrides-file", "", "per-tenant limits file (YAML or JSON), reloaded on SIGHUP and -overrides-poll")
		overridesPoll = fs.Duration("overrides-poll", 10*time.Second, "poll period for -overrides-file changes (0 = SIGHUP only)")
		mmapSnapshot  = fs.Bool("mmap", false, "restore -snapshot by memory-mapping it (columns served from the page cache)")
		resultCache   = fs.Int64("result-cache-bytes", 64<<20, "epoch-keyed result cache budget for topk/servicevalues (0 = disabled)")
		replicaOf     = fs.String("replica-of", "", "run as a read-only replica of the primary tqserve at this base URL")
		frontendOn    = fs.Bool("frontend", false, "run as a scatter-gather frontend over -backends (no local index)")
		backends      = fs.String("backends", "", "frontend shard-group map: comma-separated groups, each 'primary|replica|...' base URLs")
		replLogCap    = fs.Int("repl-log-cap", replog.DefaultCap, "replication log retention in entries on a single-tenant primary (0 = replication off)")
		replPoll      = fs.Duration("repl-poll", time.Second, "replica long-poll window against the primary's /v1/changes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenantRoot != "" && *walDir != "" {
		return fmt.Errorf("-tenant-root and -wal-dir are mutually exclusive (the root holds each tenant's WAL)")
	}
	if *tenantRoot != "" && *snapshot != "" {
		return fmt.Errorf("-snapshot is single-tenant; with -tenant-root use -synthetic to seed the default tenant")
	}
	if *frontendOn && (*replicaOf != "" || *tenantRoot != "" || *walDir != "" || *snapshot != "" || *synthetic > 0) {
		return fmt.Errorf("-frontend serves no local index: drop -replica-of/-tenant-root/-wal-dir/-snapshot/-synthetic")
	}
	if *backends != "" && !*frontendOn {
		return fmt.Errorf("-backends requires -frontend")
	}
	if *replicaOf != "" && (*tenantRoot != "" || *walDir != "" || *snapshot != "" || *synthetic > 0) {
		return fmt.Errorf("-replica-of bootstraps from the primary: drop -tenant-root/-wal-dir/-snapshot/-synthetic")
	}

	part, err := shard.PartitionerOf(*partitioner)
	if err != nil {
		return fmt.Errorf("-partitioner: %w", err)
	}
	pol := trajcover.LivePolicy{MaxDelta: *maxDelta}

	if *frontendOn {
		if *backends == "" {
			return fmt.Errorf("-frontend needs -backends")
		}
		groups, err := dist.ParseMap(*backends)
		if err != nil {
			return err
		}
		fe, err := dist.NewFrontend(dist.FrontendConfig{
			Groups:         groups,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			MaxBodyBytes:   *maxBody,
			Logf:           func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) },
		})
		if err != nil {
			return err
		}
		defer fe.Close()
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tqserve: frontend over %d shard group(s) on %s\n", len(groups), ln.Addr())
		if ready != nil {
			ready(ln.Addr().String())
		}
		err = serveLoop(newHTTPServer(fe.Handler()), ln, stdout, sig, nil, *drainTimeout, fe.BeginDrain)
		fmt.Fprintln(stdout, "tqserve: drained, bye")
		return err
	}

	if *replicaOf != "" {
		primary := strings.TrimSuffix(*replicaOf, "/")
		// The placeholder index never serves: ReplicaHandler answers 503
		// to reads until the replica's first catch-up swaps the real one
		// in. The result cache stays off — its keys carry the index's
		// write version but not its identity, and SetIndex changes the
		// identity.
		empty, err := trajcover.NewIndex(nil, trajcover.IndexOptions{Policy: pol})
		if err != nil {
			return err
		}
		srv := server.New(empty, server.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			MaxBodyBytes:   *maxBody,
		})
		rep := dist.NewReplica(dist.ReplicaConfig{
			Primary:  primary,
			Policy:   pol,
			PollWait: *replPoll,
			OnSwap:   srv.SetIndex,
			Logf:     func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) },
		})
		repCtx, repCancel := context.WithCancel(context.Background())
		defer repCancel()
		go rep.Run(repCtx)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tqserve: replica of %s on %s (syncing)\n", primary, ln.Addr())
		if ready != nil {
			ready(ln.Addr().String())
		}
		err = serveLoop(newHTTPServer(dist.ReplicaHandler(srv.Handler(), rep)), ln, stdout, sig, nil, *drainTimeout, srv.BeginDrain)
		srv.Close()
		fmt.Fprintln(stdout, "tqserve: drained, bye")
		return err
	}
	var srv *server.Server
	if *tenantRoot != "" {
		syncPol, perr := trajcover.ParseWALSyncPolicy(*walSync)
		if perr != nil {
			return perr
		}
		reg, err := trajcover.OpenTenantRegistry(trajcover.TenantRegistryOptions{
			Root: *tenantRoot,
			WAL: trajcover.WALOptions{
				Sync:         syncPol,
				SyncEvery:    *walSyncEvery,
				SegmentBytes: *walSegBytes,
				ProbeMin:     *walProbeMin,
				ProbeMax:     *walProbeMax,
			},
			Index: trajcover.IndexOptions{
				Ordering:    trajcover.ZOrdering,
				Shards:      *shards,
				Partitioner: part,
				Policy:      pol,
			},
			MaxOpen: *tenantMaxOpen,
			NewTenant: func(id string) ([]*trajcover.Trajectory, error) {
				// Only the default tenant gets the -synthetic seed; every
				// other tenant starts empty on its first write.
				if id == trajcover.TenantDefault && *synthetic > 0 {
					return trajcover.TaxiTrips(trajcover.NewYorkCity(), *synthetic, *seed), nil
				}
				return nil, nil
			},
		})
		if err != nil {
			return err
		}
		defer reg.Close()
		if *synthetic > 0 {
			// Materialize the default tenant now so first-boot reads work;
			// later boots find it on disk and recover from its WAL.
			_, release, err := reg.Acquire(trajcover.TenantDefault, true)
			if err != nil {
				return fmt.Errorf("seed default tenant: %w", err)
			}
			release()
		}
		srv = server.NewMulti(reg, server.Config{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultTimeout:   *timeout,
			MaxTimeout:       *maxTimeout,
			MaxBodyBytes:     *maxBody,
			ResultCacheBytes: *resultCache,
		})
	} else {
		var idx *trajcover.Index
		var err error
		if *walDir != "" {
			syncPol, perr := trajcover.ParseWALSyncPolicy(*walSync)
			if perr != nil {
				return perr
			}
			idx, err = trajcover.OpenIndex(trajcover.WALOptions{
				Dir:          *walDir,
				Sync:         syncPol,
				SyncEvery:    *walSyncEvery,
				SegmentBytes: *walSegBytes,
				ProbeMin:     *walProbeMin,
				ProbeMax:     *walProbeMax,
			}, pol, func() (*trajcover.Index, error) {
				return buildIndex(*snapshot, *mmapSnapshot, *synthetic, *seed, *shards, part, pol)
			})
		} else {
			idx, err = buildIndex(*snapshot, *mmapSnapshot, *synthetic, *seed, *shards, part, pol)
		}
		if err != nil {
			return err
		}
		defer idx.Close()
		// Single-tenant servers are replication primaries by default:
		// every acknowledged write also lands in this bounded in-memory
		// log, which replicas tail over GET /v1/changes.
		var rl *replog.Log
		if *replLogCap > 0 {
			rl = replog.New(*replLogCap)
		}
		srv = server.New(idx, server.Config{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultTimeout:   *timeout,
			MaxTimeout:       *maxTimeout,
			MaxBodyBytes:     *maxBody,
			ResultCacheBytes: *resultCache,
			ReplLog:          rl,
		})
	}

	// The overrides watcher: a bad file at boot is a refusal to start; a
	// bad rewrite later keeps the old limits and logs the reason.
	var watcher *tenant.Watcher
	if *overridesFile != "" {
		watcher = tenant.NewWatcher(*overridesFile,
			func(o *tenant.Overrides) { srv.SetOverrides(o) },
			func(err error) { fmt.Fprintln(stdout, "tqserve: overrides:", err) },
		)
		if err := watcher.Load(); err != nil {
			return fmt.Errorf("overrides: %w", err)
		}
		srv.SetOverridesStatus(func() server.OverridesSnapshot {
			reloads, fails := watcher.Stats()
			return server.OverridesSnapshot{Reloads: reloads, Fails: fails}
		})
		if *overridesPoll > 0 {
			watcher.Start(*overridesPoll)
			defer watcher.Stop()
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if idx := srv.Index(); idx != nil {
		fmt.Fprintf(stdout, "tqserve: serving %d trajectories across %d shard(s) on %s\n",
			idx.Len(), idx.NumShards(), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "tqserve: serving on %s (no default tenant yet)\n", ln.Addr())
	}
	if *tenantRoot != "" {
		fmt.Fprintf(stdout, "tqserve: tenants under %s (sync=%s)\n", *tenantRoot, *walSync)
	} else if idx := srv.Index(); idx != nil {
		if _, ok := idx.WALStats(); ok {
			fmt.Fprintf(stdout, "tqserve: wal %s (sync=%s)\n", *walDir, *walSync)
		}
	}
	if *overridesFile != "" {
		fmt.Fprintf(stdout, "tqserve: overrides %s (poll=%s, SIGHUP reloads)\n", *overridesFile, *overridesPoll)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	err = serveLoop(newHTTPServer(srv.Handler()), ln, stdout, sig, watcher, *drainTimeout, srv.BeginDrain)
	srv.Close()
	fmt.Fprintln(stdout, "tqserve: drained, bye")
	return err
}

// newHTTPServer wraps a handler with the timeouts every tqserve mode
// shares. Slow clients must not hold handler goroutines outside the
// admission/deadline machinery (which starts only once the body is
// read): bound the header, the whole request read, and idle
// keep-alives.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveLoop runs hs on ln until the signal channel asks for a drain:
// SIGHUP reloads the overrides watcher in place (when there is one),
// anything else (or a closed channel) flips the server into drain mode
// via beginDrain, shuts the HTTP layer down within drainTimeout, and
// force-closes whatever outlives the grace period.
func serveLoop(hs *http.Server, ln net.Listener, stdout io.Writer, sig <-chan os.Signal, watcher *tenant.Watcher, drainTimeout time.Duration, beginDrain func()) error {
	drained := make(chan error, 1)
	go func() {
		for {
			s, ok := <-sig
			if ok && s == syscall.SIGHUP {
				if watcher == nil {
					fmt.Fprintln(stdout, "tqserve: SIGHUP ignored (no -overrides-file)")
					continue
				}
				// Failures are logged by the watcher's OnError hook.
				if err := watcher.Reload(); err == nil {
					fmt.Fprintln(stdout, "tqserve: overrides reloaded")
				}
				continue
			}
			break
		}
		fmt.Fprintln(stdout, "tqserve: draining")
		beginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := hs.Shutdown(ctx)
		if err != nil {
			// Grace period elapsed with connections still alive: force
			// them closed so no handler outlives the HTTP layer.
			hs.Close()
		}
		drained <- err
	}()

	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}

// buildIndex restores or generates the served index.
func buildIndex(snapshot string, mmapSnapshot bool, synthetic int, seed int64, shards int, part trajcover.Partitioner, pol trajcover.LivePolicy) (*trajcover.Index, error) {
	if snapshot != "" {
		if mmapSnapshot {
			return trajcover.OpenMappedLiveSnapshot(snapshot, pol)
		}
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trajcover.ReadLiveSnapshot(f, pol)
	}
	if synthetic <= 0 {
		return nil, fmt.Errorf("need -snapshot or -synthetic N")
	}
	users := trajcover.TaxiTrips(trajcover.NewYorkCity(), synthetic, seed)
	return trajcover.NewIndex(users, trajcover.IndexOptions{
		Ordering:    trajcover.ZOrdering,
		Shards:      shards,
		Partitioner: part,
		Policy:      pol,
	})
}
