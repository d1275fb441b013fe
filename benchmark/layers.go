package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unsafe"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// directBodies is how many of the workload's bodies the untraced direct
// timings below use.
const directBodies = 8

// indexLayers times calls the request path does not make on this stack
// but later issues will reason about: the bound-only and exhaustive
// queries on the served indexes, and the snapshot writer and both
// readers on the first of them.
func (b *bench) indexLayers(res *result) error {
	ctx := context.Background()
	var indexes []*trajcover.LiveShardedIndex
	for _, s := range b.servers() {
		indexes = append(indexes, s.idx)
	}
	var bounds, values []float64
	for i := 0; i < directBodies && i < len(b.in.facs); i++ {
		facs, q := b.in.facs[i], b.in.query()
		t := time.Now()
		for _, idx := range indexes {
			if _, err := idx.UpperBoundsCtx(ctx, facs, q); err != nil {
				return err
			}
		}
		bounds = append(bounds, time.Since(t).Seconds()*1e3)
		t = time.Now()
		for _, idx := range indexes {
			if _, err := idx.ServiceValuesCtx(ctx, facs, q, 1); err != nil {
				return err
			}
		}
		values = append(values, time.Since(t).Seconds()*1e3)
	}
	res.set("query.upperbounds_ms", median(bounds), "ms")
	res.set("query.servicevalues_ms", median(values), "ms")

	// Snapshot round trip of the first served index (for dist_topk one
	// backend: half the corpus).
	idx := indexes[0]
	path := filepath.Join(b.dir, "direct.tqlive")
	t := time.Now()
	if err := writeSnapshot(idx, path); err != nil {
		return err
	}
	res.set("snapshot.write_s", time.Since(t).Seconds(), "s")
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.set("snapshot.bytes_per_traj", float64(fi.Size())/float64(idx.Len()), "B")

	t = time.Now()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	heap, err := trajcover.ReadLiveSnapshot(f, trajcover.LivePolicy{Manual: true})
	f.Close()
	if err != nil {
		return err
	}
	res.set("snapshot.heap_restore_s", time.Since(t).Seconds(), "s")

	t = time.Now()
	mapped, err := trajcover.OpenMappedLiveSnapshot(path, trajcover.LivePolicy{Manual: true})
	if err != nil {
		return err
	}
	res.set("snapshot.mapped_open_s", time.Since(t).Seconds(), "s")
	if heap.Len() != idx.Len() || mapped.Len() != idx.Len() {
		return fmt.Errorf("snapshot round trip: wrote %d trajectories, restored %d (heap) and %d (mapped)", idx.Len(), heap.Len(), mapped.Len())
	}
	return nil
}

// corpusLayers measures the layers under the index on the workload's own
// corpus and the paper-default facility set: input generation, the tree
// build and freeze, the exhaustive scan the best-first search is compared
// with, and the paper's second query and its quadtree baseline. These do
// not depend on how the workload serves the corpus.
func corpusLayers(cfg config, res *result) error {
	t := time.Now()
	in := generate(cfg.seed, cfg.scale, paperShape, 1)
	res.set("datagen.gen_s", time.Since(t).Seconds(), "s")
	facs, k := in.facs[0], paperShape.k
	params := query.Params{Scenario: service.Binary, Psi: psi}

	t = time.Now()
	tree, err := tqtree.Build(in.users, tqtree.Options{Ordering: tqtree.ZOrder})
	if err != nil {
		return err
	}
	res.set("tqtree.build_s", time.Since(t).Seconds(), "s")
	t = time.Now()
	frozen, err := tqtree.Freeze(tree)
	if err != nil {
		return err
	}
	res.set("tqtree.freeze_s", time.Since(t).Seconds(), "s")
	res.set("tqtree.nodes", float64(frozen.NumNodes()), "count")
	res.set("tqtree.entries", float64(frozen.NumEntries()), "count")
	res.set("tqtree.frozen_mb", float64(columnBytes(frozen.Columns()))/(1<<20), "MB")

	set, err := trajectory.NewSet(in.users)
	if err != nil {
		return err
	}
	engine := query.NewFrozenEngine(frozen, set)
	t = time.Now()
	_, all, err := engine.ServiceValues(facs, params, 1)
	if err != nil {
		return err
	}
	scan := time.Since(t)
	res.set("tqtree.ns_per_entry_scored", ratio(float64(scan), float64(all.EntriesScored)), "ns")
	t = time.Now()
	_, best, err := engine.TopK(facs, k, params)
	if err != nil {
		return err
	}
	tqTopK := time.Since(t)
	res.set("query.exhaustive_ratio", ratio(float64(best.EntriesScored), float64(all.EntriesScored)), "ratio")

	var builds []float64
	for _, f := range facs {
		t = time.Now()
		service.NewStopSet(f.Stops, psi)
		builds = append(builds, float64(time.Since(t))/1e3)
	}
	res.set("service.stopset_build_us", median(builds), "us")

	t = time.Now()
	cov, err := maxcov.TwoStepGreedy(query.NewEngine(tree, set), facs, k, 0, params)
	if err != nil {
		return err
	}
	res.set("maxcov.greedy_ms", time.Since(t).Seconds()*1e3, "ms")
	res.set("maxcov.users_served", float64(cov.UsersServed), "count")

	baseline := query.NewBaseline(set, tqtree.TwoPoint)
	t = time.Now()
	if _, err := baseline.TopK(facs, k, params); err != nil {
		return err
	}
	blTopK := time.Since(t)
	res.set("quadtree.topk_ms", blTopK.Seconds()*1e3, "ms")
	res.set("paper.tq_over_bl", ratio(float64(tqTopK), float64(blTopK)), "ratio")
	return nil
}

// columnBytes is the size of a frozen tree's column slices.
func columnBytes(c tqtree.FrozenColumns) int {
	const (
		rect  = int(unsafe.Sizeof(geo.Rect{}))
		point = int(unsafe.Sizeof(geo.Point{}))
	)
	return rect*(len(c.NodeRect)+len(c.BktStartMBR)+len(c.BktEndMBR)+len(c.BktFullMBR)+len(c.EntMBR)) +
		point*(len(c.EntFirst)+len(c.EntLast)) +
		8*(len(c.OwnUB)+len(c.TreeUB)+len(c.BktMinStart)+len(c.BktMaxStart)) +
		4*(len(c.ChildBase)+len(c.ChildCount)+len(c.EntryOff)+len(c.BucketOff)+len(c.BktEntryOff)+len(c.EntTraj)+len(c.EntSeg))
}

// calibrateMS times a fixed kernel that touches no code under test — 2^20
// dependent reads around one random cycle through 32 MB, then 2^22 float
// multiply-adds — so a reader of two runs can tell a slower host from a
// slower program.
func calibrateMS() float64 {
	const words = 4 << 20 // 32 MB of uint64
	table := make([]uint64, words)
	for i := range table {
		table[i] = uint64(i)
	}
	// Sattolo's shuffle: a permutation that is a single cycle, so the
	// chase never settles into a cache-sized loop.
	rng := rand.New(rand.NewSource(1))
	for i := words - 1; i > 0; i-- {
		j := rng.Intn(i)
		table[i], table[j] = table[j], table[i]
	}
	t := time.Now()
	at, acc := uint64(0), 1.0
	for i := 0; i < 1<<20; i++ {
		at = table[at]
	}
	for i := 0; i < 1<<22; i++ {
		acc = acc*1.0000001 + 1e-9
	}
	d := time.Since(t)
	if at == words || acc == 0 { // never: keeps both loops observable
		panic("benchmark: calibration kernel optimised away")
	}
	return d.Seconds() * 1e3
}

// rssPeakMB reads the process's peak resident set (VmHWM); 0 where
// /proc is unavailable.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed line
				return kb / 1024
			}
		}
	}
	return 0
}
