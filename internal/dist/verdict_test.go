package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/server"
)

// countingBackend is a fake stream backend (streamBackend) whose query
// frames are counted and handed to answer.
func countingBackend(hits *atomic.Int64, answer func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool) *httptest.Server {
	return streamBackend(func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
		hits.Add(1)
		return answer(c, qf, ordinal)
	})
}

// fakeValue is what the fake backends answer for a facility.
func fakeValue(id uint32) float64 { return 1.5 * float64(id) }

// TestFrontendBackendErrorVerdicts pins backendError's verdict on a
// backend's error frame, with one group of two members: a member
// answering 400 or 404 has judged the request, so its answer is relayed
// verbatim and no other member is asked; a member answering 429 or 503
// has failed, so it is marked unhealthy and the read fails over to the
// next member, which answers it.
func TestFrontendBackendErrorVerdicts(t *testing.T) {
	facs := testFacilities(5, 4, 401)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), Psi: 40})
	want := make([]float64, len(facs))
	for i, f := range facs {
		want[i] = fakeValue(uint32(f.ID))
	}
	for _, tc := range []struct {
		status   int
		failover bool
	}{
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
	} {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			reply := []byte(fmt.Sprintf(`{"error":"backend says %d"}`, tc.status))
			var badHits, goodHits atomic.Int64
			bad := countingBackend(&badHits, func(c net.Conn, _ *server.QueryFrame, ordinal uint16) bool {
				retry := tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable
				_, err := c.Write(server.AppendErrorFrame(nil, ordinal, tc.status, retry, reply))
				return err == nil
			})
			defer bad.Close()
			good := countingBackend(&goodHits, func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
				out := make([]float64, len(qf.Facilities))
				for i, id := range frameIDs(qf) {
					out[i] = fakeValue(id)
				}
				_, err := c.Write(server.AppendFloatsFrame(nil, ordinal, out))
				return err == nil
			})
			defer good.Close()
			fe, err := NewFrontend(FrontendConfig{
				Groups:         []Group{{Members: []string{bad.URL, good.URL}}},
				RPCTimeout:     5 * time.Second,
				DefaultTimeout: 10 * time.Second,
				ProbeInterval:  time.Hour, // keep probes out of the picture
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fe.Close()
			fets := httptest.NewServer(fe.Handler())
			defer fets.Close()

			// The group's round-robin cursor starts one of two reads on
			// the failing member; a read that starts on the other never
			// asks it.
			for read := 0; badHits.Load() == 0; read++ {
				if read == 2 {
					t.Fatal("two reads never asked the failing member")
				}
				goodBefore := goodHits.Load()
				st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body)
				if badHits.Load() == 0 {
					if st != http.StatusOK || goodHits.Load() != goodBefore+1 {
						t.Fatalf("read %d from the healthy member: %d %s", read, st, got)
					}
					continue
				}
				health := fe.Stats().Groups[0].Members
				if !tc.failover {
					if st != tc.status || !bytes.Equal(got, reply) {
						t.Fatalf("read %d: %d %s, want the backend's %d %s relayed", read, st, got, tc.status, reply)
					}
					if goodHits.Load() != goodBefore || fe.Stats().Failovers != 0 || !health[0].Healthy {
						t.Fatalf("read %d: a %d failed over (other member asked %d times, failovers %d, health %+v)",
							read, tc.status, goodHits.Load()-goodBefore, fe.Stats().Failovers, health)
					}
					return
				}
				var vals server.ValuesResponse
				if st != http.StatusOK || json.Unmarshal(got, &vals) != nil || !slices.Equal(vals.Values, want) {
					t.Fatalf("read %d: %d %s, want the next member's values %v", read, st, got, want)
				}
				if goodHits.Load() != goodBefore+1 || fe.Stats().Failovers != 1 || health[0].Healthy || !health[1].Healthy {
					t.Fatalf("read %d: a %d did not fail over (other member asked %d times, failovers %d, health %+v)",
						read, tc.status, goodHits.Load()-goodBefore, fe.Stats().Failovers, health)
				}
			}
			if !tc.failover {
				t.Fatalf("a %d was never relayed", tc.status)
			}
			// Once removed, the failed member is not asked again.
			if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body); st != http.StatusOK || badHits.Load() != 1 {
				t.Fatalf("read after the failover: %d %s, failed member asked %d times", st, got, badHits.Load())
			}
		})
	}
}

// TestFrontendStatsDocument pins the frontend's /statsz document: a GET
// answers 200 with the Stats counters as JSON under their wire names —
// one request, exchange and values frame per group per read, the
// relayed 4xx as an error — and the group map's health.
func TestFrontendStatsDocument(t *testing.T) {
	var hits [2]atomic.Int64
	var backends [2]*httptest.Server
	for i := range backends {
		backends[i] = countingBackend(&hits[i], func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
			_, err := c.Write(server.AppendFloatsFrame(nil, ordinal, make([]float64, len(qf.Facilities))))
			return err == nil
		})
		defer backends[i].Close()
	}
	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: []string{backends[0].URL}}, {Members: []string{backends[1].URL}}},
		DefaultTimeout: 10 * time.Second,
		ProbeInterval:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	facs := server.FacilitiesJSON(testFacilities(3, 4, 402))
	for _, req := range []struct {
		path string
		body server.QueryRequest
		want int
	}{
		{server.PathTopK, server.QueryRequest{Facilities: facs, K: 2, Psi: 40}, http.StatusOK},
		{server.PathServiceValues, server.QueryRequest{Facilities: facs, Psi: 40}, http.StatusOK},
		{server.PathTopK, server.QueryRequest{Facilities: facs, K: 0, Psi: 40}, http.StatusBadRequest},
	} {
		if st, got, _ := postTo(t, fets.Client(), fets.URL+req.path, mustBody(t, req.body)); st != req.want {
			t.Fatalf("%s: %d %s, want %d", req.path, st, got, req.want)
		}
	}

	resp, err := fets.Client().Get(fets.URL + server.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/statsz: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("/statsz is not a JSON object: %v\n%s", err, raw)
	}
	for _, k := range []string{"uptime_seconds", "groups", "requests", "errors", "partial_responses", "failovers", "exchanges", "bound_rpcs", "exact_rpcs", "pruned_facilities"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/statsz lacks %q: %s", k, raw)
		}
	}
	var doc FrontendStats
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.UptimeSeconds <= 0 {
		t.Errorf("uptime %v", doc.UptimeSeconds)
	}
	doc.UptimeSeconds = 0
	wantGroups, _ := fe.groupHealth()
	want := FrontendStats{Groups: wantGroups, Requests: 3, Errors: 1, Exchanges: 4, ExactRPCs: 4}
	if !reflect.DeepEqual(doc, want) {
		t.Fatalf("/statsz = %+v, want %+v", doc, want)
	}
	if hits[0].Load() != 2 || hits[1].Load() != 2 {
		t.Fatalf("backends asked %d and %d times, want 2 each", hits[0].Load(), hits[1].Load())
	}
	for _, g := range doc.Groups {
		if g.Healthy != 1 || len(g.Members) != 1 || !g.Members[0].Healthy || !g.Members[0].Primary || g.Primary != g.Members[0].URL {
			t.Fatalf("group health %+v", g)
		}
	}
}
