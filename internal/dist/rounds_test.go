package dist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// boundaryUsers is one seeded corpus of short trips. Uniform spreads
// them over the map with sequential IDs, which RouteID hashes evenly
// over the groups. Skewed packs all but a handful into the south-west
// corner, the rest into the north-east one, and picks IDs so that nine
// in ten live on group 0: two quadrants stay empty, bounds separate
// contenders from the rest at once, and one group carries the sums.
func boundaryUsers(rng *rand.Rand, nGroups int, skewed bool) []*trajcover.Trajectory {
	var users []*trajcover.Trajectory
	for id := uint32(0); len(users) < 300; id++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if skewed {
			if wantZero := nGroups == 1 || len(users)%10 != 0; wantZero != (RouteID(id, nGroups) == 0) {
				continue
			}
			x, y = 40+rng.Float64()*120, 40+rng.Float64()*120
			if len(users)%50 == 49 {
				x, y = 800+rng.Float64()*150, 800+rng.Float64()*150
			}
		}
		u, err := trajcover.NewTrajectory(trajcover.ID(id), []trajcover.Point{
			trajcover.Pt(x, y), trajcover.Pt(clampF(x+rng.NormFloat64()*5, 0, 1000), clampF(y+rng.NormFloat64()*5, 0, 1000)),
		})
		if err != nil {
			panic(err)
		}
		users = append(users, u)
	}
	return users
}

// boundaryFacilities is 8 routes, each present three times under
// different shuffled IDs: copies have equal exact values and equal
// summed bounds, so sorted by value the ranks come in runs of three and
// both k = 1 and k = 8 cut a run. Skewed routes are short — a small EMBR
// seeds its bound deep in the tree — and sit in the cluster (2), beside
// it (2) and among the far stragglers (4), whose bounds fall below the
// cluster routes' values.
func boundaryFacilities(rng *rand.Rand, skewed bool) []*trajcover.Facility {
	ids := rng.Perm(24)
	var out []*trajcover.Facility
	for r := 0; r < 8; r++ {
		ax, ay, stops, step := rng.Float64()*900, rng.Float64()*1000, 5, 20.0
		if skewed {
			stops, step = 2, 5
			switch {
			case r < 2:
				ax, ay = 60+rng.Float64()*60, 60+rng.Float64()*60
			case r < 4:
				ax, ay = 230+rng.Float64()*30, 230+rng.Float64()*30
			default:
				ax, ay = 820+rng.Float64()*100, 820+rng.Float64()*100
			}
		}
		var pts []trajcover.Point
		for j := 0; j < stops; j++ {
			pts = append(pts, trajcover.Pt(ax+float64(j)*step, clampF(ay+rng.NormFloat64()*step/2, 0, 1000)))
		}
		for c := 0; c < 3; c++ {
			f, err := trajcover.NewFacility(trajcover.ID(500+ids[3*r+c]), pts)
			if err != nil {
				panic(err)
			}
			out = append(out, f)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// boundaryCounts is what one /v1/topk moved on the frontend's counters.
type boundaryCounts struct {
	K                                     int
	Partial                               bool
	Exchanges, Bound, Exact, Legs, Pruned uint64
}

// runBoundary builds one seeded tier and asks it for the top k of the
// tied facility set at every k, strict and ?partial=1: each answer must
// be byte-identical to the single-process library TopK, within the round
// schedule's frame budget: one exchange and one bounds frame per group,
// at most ⌈log2(N/k)⌉+1 round frames on each.
func runBoundary(t *testing.T, seed int64, nGroups int, skewed bool) []boundaryCounts {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	users := boundaryUsers(rng, nGroups, skewed)
	facs := boundaryFacilities(rng, skewed)
	fjs := server.FacilitiesJSON(facs)
	n := len(facs)
	e := newDistEnv(t, users, nGroups, FrontendConfig{DefaultTimeout: 30 * time.Second, ProbeInterval: time.Hour})
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 30}

	vals, err := e.ref.Index().ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for _, k := range []int{1, 8} {
		if vals[k-1] != vals[k] {
			t.Fatalf("seed %d: ranks %d and %d are not tied (%v, %v)", seed, k, k+1, vals[k-1], vals[k])
		}
	}

	var out []boundaryCounts
	for _, k := range []int{1, 8, n, n + 5} {
		want, err := e.ref.Index().TopK(facs, k, q)
		if err != nil {
			t.Fatal(err)
		}
		body := mustBody(t, server.QueryRequest{Facilities: fjs, K: k, Psi: q.Psi})
		for _, partial := range []bool{false, true} {
			path := server.PathTopK
			if partial {
				path += "?partial=1"
			}
			before := e.fe.Stats()
			st, got, _ := e.post(path, body)
			after := e.fe.Stats()
			if st != http.StatusOK {
				t.Fatalf("seed %d groups %d skewed %v k %d partial %v: %d %s", seed, nGroups, skewed, k, partial, st, got)
			}
			if !bytes.Equal(got, server.MarshalTopKResponse(want)) {
				t.Fatalf("seed %d groups %d skewed %v k %d partial %v: distributed topk differs from single process\n got: %s\nwant: %s",
					seed, nGroups, skewed, k, partial, got, server.MarshalTopKResponse(want))
			}
			c := boundaryCounts{
				K: k, Partial: partial,
				Exchanges: after.Exchanges - before.Exchanges,
				Bound:     after.BoundRPCs - before.BoundRPCs,
				Exact:     after.ExactRPCs - before.ExactRPCs,
				Legs:      after.ExactFacilities - before.ExactFacilities,
				Pruned:    after.PrunedFacilities - before.PrunedFacilities,
			}
			rounds := math.Ceil(math.Log2(float64(n)/float64(min(k, n)))) + 1
			if c.Exchanges != uint64(nGroups) || c.Bound != uint64(nGroups) || c.Exact > uint64(nGroups)*uint64(rounds) {
				t.Fatalf("seed %d groups %d skewed %v k %d: %d exchanges, %d bounds frames and %d round frames, budget %d, %d and %d·%v",
					seed, nGroups, skewed, k, c.Exchanges, c.Bound, c.Exact, nGroups, nGroups, nGroups, rounds)
			}
			if c.Legs != (uint64(n)-c.Pruned)*uint64(nGroups) {
				t.Fatalf("seed %d groups %d skewed %v k %d: %d legs but %d of %d facilities pruned", seed, nGroups, skewed, k, c.Legs, c.Pruned, n)
			}
			out = append(out, c)
		}
	}
	return out
}

// TestFrontendThresholdBoundary attacks the round merge's stop rule where
// it is thinnest: facilities with equal exact values on both sides of
// rank k and equal summed bounds, over uniform and heavily skewed corpora
// on 1–3 groups. Answers must equal one process's byte for byte, and the
// same seed must spend the same frames and prune the same facilities
// twice running (the benchmark's TestDeterminism leans on that).
func TestFrontendThresholdBoundary(t *testing.T) {
	seeds := int64(3)
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		seeds = 12
	}
	var pruned uint64
	for seed := int64(1); seed <= seeds; seed++ {
		for _, nGroups := range []int{1, 2, 3} {
			for _, skewed := range []bool{false, true} {
				first := runBoundary(t, seed, nGroups, skewed)
				if again := runBoundary(t, seed, nGroups, skewed); !reflect.DeepEqual(first, again) {
					t.Fatalf("seed %d groups %d skewed %v: counters differ between two runs\n%+v\n%+v", seed, nGroups, skewed, first, again)
				}
				for _, c := range first {
					pruned += c.Pruned
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no run pruned anything: the stop rule was never exercised")
	}
}

// tableGroup is a fake backend answering bounds and round frames from
// per-facility-ID tables.
func tableGroup(bounds, values map[uint32]float64) *httptest.Server {
	lookup := func(table map[uint32]float64, ids []uint32) []float64 {
		nums := make([]float64, len(ids))
		for i, id := range ids {
			nums[i] = table[id]
		}
		return nums
	}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fakeExchange(w, r,
			func(ids []uint32) []float64 { return lookup(bounds, ids) },
			func(ids []uint32) ([]float64, bool) { return lookup(values, ids), true })
	}))
}

// TestFrontendStopRuleTies drives the round merge with scripted groups,
// because real trees almost never produce a bound equal to a value: small
// integer values with slack 0–2 per group make bounds that equal the
// k-th value, equal each other and straddle rank k on nearly every
// draw. The answer must be the table's top k (value descending, ID
// ascending), and the facilities evaluated fewer than twice those a
// one-at-a-time best-first search needs, plus k.
func TestFrontendStopRuleTies(t *testing.T) {
	rng := rand.New(rand.NewSource(371))
	for trial := 0; trial < 150; trial++ {
		nGroups, n := 1+rng.Intn(3), 1+rng.Intn(40)
		skewed := rng.Intn(2) == 0
		ids := rng.Perm(2 * n)[:n]
		var facs []*trajcover.Facility
		total := map[uint32]float64{} // summed exact value
		upper := map[uint32]float64{} // summed bound
		for _, id := range ids {
			f, err := trajcover.NewFacility(trajcover.ID(id), []trajcover.Point{trajcover.Pt(1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			facs = append(facs, f)
		}
		var groups []Group
		for g := 0; g < nGroups; g++ {
			bounds, values := map[uint32]float64{}, map[uint32]float64{}
			for _, id := range ids {
				v := float64(rng.Intn(4))
				if skewed && g > 0 {
					v = 0
				}
				values[uint32(id)] = v
				bounds[uint32(id)] = v + float64(rng.Intn(3))
				total[uint32(id)] += v
				upper[uint32(id)] += bounds[uint32(id)]
			}
			ts := tableGroup(bounds, values)
			defer ts.Close()
			groups = append(groups, Group{Members: []string{ts.URL}})
		}
		fe, err := NewFrontend(FrontendConfig{Groups: groups, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		fets := httptest.NewServer(fe.Handler())
		defer fets.Close()

		ranked := make([]trajcover.Ranked, n)
		for i, f := range facs {
			ranked[i] = trajcover.Ranked{Facility: f, Service: total[uint32(f.ID)]}
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].Service != ranked[b].Service {
				return ranked[a].Service > ranked[b].Service
			}
			return ranked[a].Facility.ID < ranked[b].Facility.ID
		})
		for _, k := range []int{1, 2, 8, n, n + 5} {
			kc := min(k, n)
			before := fe.Stats()
			st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK,
				mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: k, Psi: 1}))
			if want := server.MarshalTopKResponse(ranked[:kc]); st != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("trial %d groups %d n %d k %d: %d\n got: %s\nwant: %s", trial, nGroups, n, k, st, got, want)
			}
			// Best-first evaluates exactly the facilities whose bound
			// could displace the final k-th result.
			kth, needed := ranked[kc-1], 0
			for _, f := range facs {
				if ub := upper[uint32(f.ID)]; ub > kth.Service || (ub == kth.Service && f.ID <= kth.Facility.ID) {
					needed++
				}
			}
			after := fe.Stats()
			evaluated := int(after.ExactFacilities-before.ExactFacilities) / nGroups
			if evaluated < needed || evaluated >= 2*needed+kc {
				t.Fatalf("trial %d groups %d n %d k %d: evaluated %d facilities, best-first needs %d", trial, nGroups, n, k, evaluated, needed)
			}
			if pruned := int(after.PrunedFacilities - before.PrunedFacilities); pruned != n-evaluated {
				t.Fatalf("trial %d: %d pruned + %d evaluated of %d", trial, pruned, evaluated, n)
			}
		}
	}
}

// TestFrontendReusesBackendConnections: under 8 concurrent /v1/topk
// requests a backend has 8 exchanges open at a time, wave after wave. An
// exchange that ends cleanly — request body closed, response read to its
// end — must leave its connection in the frontend's pool for the next
// wave, not cost a dial per read.
func TestFrontendReusesBackendConnections(t *testing.T) {
	e := newDistEnv(t, testUsers(200, 361), 2, FrontendConfig{DefaultTimeout: 30 * time.Second, ProbeInterval: time.Hour})
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(16, 5, 362)), K: 2, Psi: 40})
	const clients, waves = 8, 12
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := e.client.Post(e.fets.URL+server.PathTopK, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("topk: %s", resp.Status)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	stats := e.fe.Stats()
	if perBackend := stats.Exchanges / 2; perBackend != clients*waves {
		t.Fatalf("%d exchanges per backend for %d reads", perBackend, clients*waves)
	}
	if stats.ExactRPCs < 4*stats.Exchanges {
		t.Fatalf("%d round frames on %d exchanges: too few for an exchange to be worth keeping open", stats.ExactRPCs, stats.Exchanges)
	}
	for g := range e.newConns {
		// A dial can race a connection going idle, so allow twice the
		// concurrency; without reuse it is one per exchange.
		if got := e.newConns[g].Load(); got > 2*clients {
			t.Fatalf("backend %d accepted %d connections for %d exchanges from %d concurrent requests", g, got, clients*waves, clients)
		}
	}
}
