package query

import (
	"sort"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// TopKRounds answers kMaxRRST when a facility's service value is a sum
// over disjoint parts of the corpus — shards in one process
// (internal/shard), shard groups across processes (internal/dist) — and
// each part can say two things about a facility: a cheap upper bound and,
// in a batch, its exact value. It is the one schedule both tiers run.
//
// bounds[i] must be a sound upper bound on facilities[i]'s exact value
// (the sum of the parts' seed bounds). Facilities are ordered by bound,
// ties by ID, and evaluated in rounds: eval receives the next stretch of
// that order as indexes into facilities and returns their exact values,
// indexed like the stretch (read before the next call and not kept, so
// eval may reuse the slice). The batch starts at k and doubles every round
// — a fixed schedule, at most ⌈log2(N/k)⌉+1 rounds — so exact work is
// batched (one call per part per round) rather than issued per facility.
//
// The stop rule uses the answer's own ranking (value descending, ID
// ascending): a facility can still displace the k-th best exact value
// known only if its bound is larger, or equal with a smaller ID. Each
// batch is cut at the first facility that cannot, and the schedule stops
// when nothing is left to send. Everything a one-at-a-time best-first
// search would evaluate has then been evaluated, so the answer is the
// exact top k; a round starts only while best-first still has work, so
// with m facilities needed by best-first fewer than 2m + k are evaluated.
//
// It returns the top k best first and how many facilities were evaluated
// (the rest were pruned by their bounds). An eval error aborts the
// schedule with no partial answer.
func TopKRounds(facilities []*trajectory.Facility, bounds []float64, k int, eval func(batch []int) ([]float64, error)) ([]Result, int, error) {
	n := len(facilities)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, 0, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return ranksBefore(bounds[i], facilities[i].ID, bounds[j], facilities[j].ID)
	})

	best := make([]Result, 0, n) // every evaluated facility, best first
	sent := 0
	for batch := k; sent < n; batch *= 2 {
		end := min(sent+batch, n)
		if len(best) >= k {
			kth := best[k-1]
			for end > sent && !ranksBefore(bounds[order[end-1]], facilities[order[end-1]].ID, kth.Service, kth.Facility.ID) {
				end--
			}
			if end == sent {
				break
			}
		}
		vals, err := eval(order[sent:end])
		if err != nil {
			return nil, sent, err
		}
		for j, fi := range order[sent:end] {
			best = append(best, Result{Facility: facilities[fi], Service: vals[j]})
		}
		sortResults(best)
		sent = end
	}
	return best[:k], sent, nil
}

// ranksBefore is the one ordering of a top-k answer — value descending,
// ID ascending — applied to bounds, to exact values, and to a bound
// against an exact value in the stop rule.
func ranksBefore(v1 float64, id1 trajectory.ID, v2 float64, id2 trajectory.ID) bool {
	return v1 > v2 || (v1 == v2 && id1 < id2)
}
