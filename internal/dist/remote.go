package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	trajcover "github.com/trajcover/trajcover"
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

// topKRounds is the round-based threshold merge behind /v1/topk (the
// package comment has the schedule and why it is exact). bounds holds
// each answering group's /v1/upperbounds reply, nil for a group missing
// from a partial answer — which then covers the surviving groups' corpus
// exactly. A group that fails a round fails the request: the other
// groups' sums are not an answer over any corpus without it.
func (fe *Frontend) topKRounds(ctx context.Context, q wireQuery, facs []*trajcover.Facility, bounds [][]float64, k int) ([]trajcover.Ranked, error) {
	var live []*feGroup
	for _, g := range fe.groups {
		if bounds[g.id] != nil {
			live = append(live, g)
		}
	}
	n := len(facs)
	if k > n {
		k = n
	}
	ub := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		for _, g := range live {
			ub[i] += bounds[g.id][i]
		}
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return ranksBefore(ub[i], facs[i].ID, ub[j], facs[j].ID)
	})
	wire := make([][]byte, n) // q.facs in bound order: a batch is a subslice
	for j, fi := range order {
		wire[j] = q.facs[fi]
	}

	best := make([]trajcover.Ranked, 0, n) // every evaluated facility, best first
	sent := 0
	for batch := k; sent < n; batch *= 2 {
		end := min(sent+batch, n)
		if len(best) >= k {
			// Cut the batch at the first facility whose bound no longer
			// ranks before the k-th result: it cannot displace it.
			kth := best[k-1]
			for end > sent && !ranksBefore(ub[order[end-1]], facs[order[end-1]].ID, kth.Service, kth.Facility.ID) {
				end--
			}
			if end == sent {
				break
			}
		}
		fe.exactRounds.Add(1)
		fe.exactRPCs.Add(uint64(len(live)))
		fe.exactFacilities.Add(uint64((end - sent) * len(live)))
		vals, _, err := fe.scatter(ctx, live, server.PathServiceValues, q.body(wire[sent:end]), end-sent)
		if err != nil {
			return nil, err
		}
		for j, fi := range order[sent:end] {
			// Group order, like the in-process merge's shard order: exact,
			// hence byte-identical to one process, for integral scenarios.
			var v float64
			for _, g := range live {
				v += vals[g.id][j]
			}
			best = append(best, trajcover.Ranked{Facility: facs[fi], Service: v})
		}
		sort.Slice(best, func(a, b int) bool {
			return ranksBefore(best[a].Service, best[a].Facility.ID, best[b].Service, best[b].Facility.ID)
		})
		sent = end
	}
	fe.pruned.Add(uint64(n - sent))
	return best[:k], nil
}

// ranksBefore is the one ordering of the merge — value descending, ID
// ascending — applied to bounds, to exact values, and to a bound against
// an exact value in the stop rule.
func ranksBefore(v1 float64, id1 trajcover.ID, v2 float64, id2 trajcover.ID) bool {
	return v1 > v2 || (v1 == v2 && id1 < id2)
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("dist: marshal: %v", err))
	}
	return b
}
