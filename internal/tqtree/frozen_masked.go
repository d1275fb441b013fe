package tqtree

// The tombstone-masked scan over the frozen columnar layout. The live
// serving path (internal/query's Epoch) deletes logically: a frozen base
// index keeps every entry it was built with, and deleted trajectories are
// masked out of scans by ID until a background rebuild folds them away.
// The masked variants below mirror ScoreNode/scoreBucket/scoreRange
// exactly — same pruning, same left-to-right float accumulation — with
// one extra per-entry membership test, kept out of the unmasked hot
// loops so the PR 3 read path is untouched byte for byte.
//
// The node and bucket aggregates (ownUB/treeUB, bucket MBRs and z-id
// ranges) still include masked entries; masking only ever removes
// service, so those aggregates remain sound upper bounds and the
// best-first search terminates with the same exactness guarantee.

import (
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
	"github.com/trajcover/trajcover/internal/zorder"
)

// ScoreNodeMasked is ScoreNode with the entries of tombstoned
// trajectories skipped (neither scored nor counted). A nil or empty mask
// delegates to ScoreNode, so the masked path is byte-identical — answers
// and work counts — to the unmasked one when nothing is deleted.
func (f *Frozen) ScoreNodeMasked(n int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, dead map[trajectory.ID]struct{}) (so float64, scored int) {
	if len(dead) == 0 {
		return f.ScoreNode(n, embr, mode, ss, sc)
	}
	lo, hi := f.entryOff[n], f.entryOff[n+1]
	if lo == hi {
		return 0, 0
	}
	if f.ordering != ZOrder {
		return f.scoreRangeMasked(lo, hi, embr, mode, ss, sc, 0, 0, dead)
	}
	var ivs []zorder.Interval
	var scratch *[]zorder.Interval
	if mode == NeedBoth {
		scratch = ivScratchPool.Get().(*[]zorder.Interval)
		buf := (*scratch)[:0]
		if int(hi-lo) >= coverMinList {
			ivs = zorder.CoverIntervalsAuto(f.bounds, embr, coverBudget, buf)
		} else {
			ivs = append(buf, zorder.Interval{
				Lo: pointCode(f.bounds, geo.Point{X: embr.MinX, Y: embr.MinY}),
				Hi: pointCode(f.bounds, geo.Point{X: embr.MaxX, Y: embr.MaxY}),
			})
		}
	}
	blo, bhi := f.bucketOff[n], f.bucketOff[n+1]
	if mode != NeedBoth || len(ivs) == 0 {
		for b := blo; b < bhi; b++ {
			so, scored = f.scoreBucketMasked(b, embr, mode, ss, sc, so, scored, dead)
		}
	} else {
		bi := blo
		for _, iv := range ivs {
			for bi < bhi && f.bktMaxStart[bi] < iv.Lo {
				bi++
			}
			for bi < bhi && f.bktMinStart[bi] <= iv.Hi {
				so, scored = f.scoreBucketMasked(bi, embr, mode, ss, sc, so, scored, dead)
				bi++
			}
			if bi == bhi {
				break
			}
		}
	}
	if scratch != nil {
		*scratch = ivs[:0]
		ivScratchPool.Put(scratch)
	}
	return so, scored
}

// scoreBucketMasked is scoreBucket with tombstoned entries skipped.
func (f *Frozen) scoreBucketMasked(b int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, so float64, scored int, dead map[trajectory.ID]struct{}) (float64, int) {
	switch mode {
	case NeedBoth:
		if !embr.Intersects(f.bktStartMBR[b]) || !embr.Intersects(f.bktEndMBR[b]) {
			return so, scored
		}
	case NeedAny:
		if !embr.Intersects(f.bktStartMBR[b]) && !embr.Intersects(f.bktEndMBR[b]) {
			return so, scored
		}
	case NeedOverlap:
		if !embr.Intersects(f.bktFullMBR[b]) {
			return so, scored
		}
	}
	return f.scoreRangeMasked(f.bktEntryOff[b], f.bktEntryOff[b+1], embr, mode, ss, sc, so, scored, dead)
}

// scoreRangeMasked is scoreRange with tombstoned entries skipped.
func (f *Frozen) scoreRangeMasked(lo, hi int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, so float64, scored int, dead map[trajectory.ID]struct{}) (float64, int) {
	alive := func(e int32) bool {
		_, gone := dead[f.table.ID(f.entTraj[e])]
		return !gone
	}
	switch mode {
	case NeedBoth:
		for e := lo; e < hi; e++ {
			if embr.Contains(f.entFirst[e]) && embr.Contains(f.entLast[e]) && alive(e) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	case NeedAny:
		for e := lo; e < hi; e++ {
			if (embr.Contains(f.entFirst[e]) || embr.Contains(f.entLast[e])) && alive(e) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	case NeedOverlap:
		for e := lo; e < hi; e++ {
			if embr.Intersects(f.entMBR[e]) && alive(e) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	default:
		panic("tqtree: invalid filter mode")
	}
	return so, scored
}
