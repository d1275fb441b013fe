package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/server"
)

// wireQuery is one request's backend-facing body in pieces: every
// facility encoded once, and the fields all backend calls share. Batch
// bodies are assembled from these bytes, never re-marshalled per RPC.
type wireQuery struct {
	facs [][]byte
	tail []byte // `,"scenario":…,"psi":…,"workers":…}`
}

// newWireQuery encodes the request's facilities and its pass-through
// fields: scenario, ψ and workers. k and tenant stay behind (backends
// answer per-group exact work, and the tier is single-tenant).
func newWireQuery(req *server.QueryRequest) wireQuery {
	q := wireQuery{facs: make([][]byte, len(req.Facilities))}
	for i := range req.Facilities {
		q.facs[i] = mustMarshal(&req.Facilities[i])
	}
	tail := mustMarshal(struct {
		Scenario string  `json:"scenario,omitempty"`
		Psi      float64 `json:"psi"`
		Workers  int     `json:"workers,omitempty"`
	}{req.Scenario, req.Psi, req.Workers})
	tail[0] = ','
	q.tail = tail
	return q
}

// body assembles a backend query over the given encoded facilities.
func (q wireQuery) body(facs [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString(`{"facilities":[`)
	for j, f := range facs {
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(f)
	}
	b.WriteByte(']')
	b.Write(q.tail)
	return b.Bytes()
}

// scatter posts one body to every group in groups, in parallel, and
// returns each group's per-facility answer indexed by group ID (nil for
// a group that failed or was not asked), the failed group IDs in
// ascending order, and the lowest failed group's error. /v1/upperbounds
// answers bounds, /v1/servicevalues values; either must be n long.
func (fe *Frontend) scatter(ctx context.Context, groups []*feGroup, path string, body []byte, n int) (answers [][]float64, missing []int, firstErr error) {
	answers = make([][]float64, len(fe.groups))
	gerrs := make([]error, len(fe.groups))
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *feGroup) {
			defer wg.Done()
			var resp struct {
				Bounds []float64 `json:"bounds"`
				Values []float64 `json:"values"`
			}
			if err := fe.readGroup(ctx, g, path, body, &resp); err != nil {
				gerrs[g.id] = err
				return
			}
			got := resp.Values
			if path == server.PathUpperBounds {
				got = resp.Bounds
			}
			if len(got) != n {
				gerrs[g.id] = fmt.Errorf("group %d answered %d numbers for %d facilities", g.id, len(got), n)
				return
			}
			answers[g.id] = got
		}(g)
	}
	wg.Wait()
	for gi, err := range gerrs {
		if err != nil {
			missing = append(missing, gi)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return answers, missing, firstErr
}

// topKRounds answers /v1/topk with query.TopKRounds — the threshold-round
// schedule the in-process sharded top-k runs — over shard groups: a
// facility's bound is the sum of the answering groups' /v1/upperbounds
// replies, and a round's exact values come from one batched
// /v1/servicevalues RPC per group. bounds holds each group's reply, nil
// for a group missing from a partial answer — which then covers the
// surviving groups' corpus exactly. A group that fails a round fails the
// request: the other groups' sums are not an answer over any corpus
// without it.
func (fe *Frontend) topKRounds(ctx context.Context, q wireQuery, facs []*trajcover.Facility, bounds [][]float64, k int) ([]trajcover.Ranked, error) {
	var live []*feGroup
	for _, g := range fe.groups {
		if bounds[g.id] != nil {
			live = append(live, g)
		}
	}
	ub := make([]float64, len(facs))
	for i := range ub {
		for _, g := range live {
			ub[i] += bounds[g.id][i]
		}
	}
	var wire [][]byte // q.facs of the round's batch, in bound order
	res, sent, err := query.TopKRounds(facs, ub, k, func(batch []int) ([]float64, error) {
		fe.exactRounds.Add(1)
		fe.exactRPCs.Add(uint64(len(live)))
		fe.exactFacilities.Add(uint64(len(batch) * len(live)))
		wire = wire[:0]
		for _, fi := range batch {
			wire = append(wire, q.facs[fi])
		}
		vals, _, err := fe.scatter(ctx, live, server.PathServiceValues, q.body(wire), len(batch))
		if err != nil {
			return nil, err
		}
		// Group order, like the in-process scatter's shard order: exact,
		// hence byte-identical to one process, for integral scenarios.
		out := make([]float64, len(batch))
		for _, g := range live {
			for j, v := range vals[g.id] {
				out[j] += v
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	fe.pruned.Add(uint64(len(facs) - sent))
	return res, nil
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("dist: marshal: %v", err))
	}
	return b
}
