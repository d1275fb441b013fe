package dist

import (
	"bytes"
	"fmt"
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
// in ten live on group 0: two quadrants stay empty, the values are far
// apart, and one group carries the sums.
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
// different shuffled IDs: copies have equal exact values, so sorted by
// value the ranks come in runs of three and both k = 1 and k = 8 cut a
// run. Skewed routes are short and sit in the cluster (2), beside it (2)
// and among the far stragglers (4).
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
	K                                int
	Partial                          bool
	Exchanges, Bound, Values, Pruned uint64
}

// runBoundary builds one seeded tier and asks it for the top k of the
// tied facility set at every k, strict and ?partial=1: each answer must
// be byte-identical to the single-process library TopK, for one exchange
// and one values frame per group, whatever k is.
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
				Values:    after.ExactRPCs - before.ExactRPCs,
				Pruned:    after.PrunedFacilities - before.PrunedFacilities,
			}
			if want := (boundaryCounts{K: k, Partial: partial, Exchanges: uint64(nGroups), Values: uint64(nGroups)}); c != want {
				t.Fatalf("seed %d groups %d skewed %v: counters moved by %+v, want %+v", seed, nGroups, skewed, c, want)
			}
			out = append(out, c)
		}
	}
	return out
}

// TestFrontendThresholdBoundary attacks the merge's cut at rank k where
// it is thinnest: facilities with equal exact values on both sides of it,
// over uniform and heavily skewed corpora on 1–3 groups. Answers must
// equal one process's byte for byte, and the same seed must move the same
// counters twice running (the benchmark's TestDeterminism leans on that).
func TestFrontendThresholdBoundary(t *testing.T) {
	seeds := int64(3)
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		seeds = 12
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, nGroups := range []int{1, 2, 3} {
			for _, skewed := range []bool{false, true} {
				first := runBoundary(t, seed, nGroups, skewed)
				if again := runBoundary(t, seed, nGroups, skewed); !reflect.DeepEqual(first, again) {
					t.Fatalf("seed %d groups %d skewed %v: counters differ between two runs\n%+v\n%+v", seed, nGroups, skewed, first, again)
				}
			}
		}
	}
}

// tableGroup is a fake backend answering exchanges from a table of values
// per facility ID.
func tableGroup(values map[uint32]float64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fakeExchange(w, r, func(ids []uint32) []float64 {
			nums := make([]float64, len(ids))
			for i, id := range ids {
				nums[i] = values[id]
			}
			return nums
		})
	}))
}

// TestFrontendTies drives the merge with scripted groups, because real
// trees rarely tie: small integer values per group make sums that equal
// each other on both sides of rank k on nearly every draw. The answer must
// be the table's top k (value descending, ID ascending) at every k a
// request can name — all N beyond N, and a 400 below 1 — for one exchange
// per group.
func TestFrontendTies(t *testing.T) {
	rng := rand.New(rand.NewSource(371))
	for trial := 0; trial < 150; trial++ {
		nGroups, n := 1+rng.Intn(3), 1+rng.Intn(40)
		skewed := rng.Intn(2) == 0
		ids := rng.Perm(2 * n)[:n]
		var facs []*trajcover.Facility
		total := map[uint32]float64{} // summed exact value
		for _, id := range ids {
			f, err := trajcover.NewFacility(trajcover.ID(id), []trajcover.Point{trajcover.Pt(1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			facs = append(facs, f)
		}
		var groups []Group
		for g := 0; g < nGroups; g++ {
			values := map[uint32]float64{}
			for _, id := range ids {
				v := float64(rng.Intn(4))
				if skewed && g > 0 {
					v = 0
				}
				values[uint32(id)] = v
				total[uint32(id)] += v
			}
			ts := tableGroup(values)
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
		for _, k := range []int{-1, 0, 1, 2, 8, n, n + 1} {
			before := fe.Stats()
			st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK,
				mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: k, Psi: 1}))
			exchanges := int(fe.Stats().Exchanges - before.Exchanges)
			if k < 1 {
				if st != http.StatusBadRequest || exchanges != 0 {
					t.Fatalf("trial %d k %d: %d %s after %d exchanges, want a 400 and none", trial, k, st, got, exchanges)
				}
				continue
			}
			if want := server.MarshalTopKResponse(ranked[:min(k, n)]); st != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("trial %d groups %d n %d k %d: %d\n got: %s\nwant: %s", trial, nGroups, n, k, st, got, want)
			}
			if exchanges != nGroups {
				t.Fatalf("trial %d groups %d n %d k %d: %d exchanges", trial, nGroups, n, k, exchanges)
			}
		}
	}
}

// TestFrontendReusesBackendConnections: under 8 concurrent /v1/topk
// requests a backend has 8 exchanges in flight at a time, wave after
// wave. An exchange that ends cleanly — the reply read to its end — must
// leave its connection in the frontend's pool for the next wave, not cost
// a dial per read.
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
	for g := range e.newConns {
		// A dial can race a connection going idle, so allow twice the
		// concurrency; without reuse it is one per exchange.
		if got := e.newConns[g].Load(); got > 2*clients {
			t.Fatalf("backend %d accepted %d connections for %d exchanges from %d concurrent requests", g, got, clients*waves, clients)
		}
	}
}
