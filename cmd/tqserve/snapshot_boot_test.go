package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// TestBuildIndexBootsEverySnapshotMagic: -snapshot serves a file of any
// of the three magics. A one-shard index written as TQSNAP04 and a
// two-shard one written as TQSHRD03, each restored on the heap and with
// -mmap, answer /v1/topk and /v1/servicevalues byte for byte as a boot
// from the TQLIVE02 file of the same index does, and then take an insert.
func TestBuildIndexBootsEverySnapshotMagic(t *testing.T) {
	users := trajcover.TaxiTrips(trajcover.NewYorkCity(), 800, 5)
	routes := trajcover.BusRoutes(trajcover.NewYorkCity(), 12, 8, 6)
	var facs strings.Builder
	for i, f := range routes {
		if i > 0 {
			facs.WriteByte(',')
		}
		fmt.Fprintf(&facs, `{"id":%d,"stops":[`, f.ID)
		for j, p := range f.Stops {
			if j > 0 {
				facs.WriteByte(',')
			}
			fmt.Fprintf(&facs, "[%v,%v]", p.X, p.Y)
		}
		facs.WriteString("]}")
	}
	reads := map[string]string{
		server.PathTopK:          `{"facilities":[` + facs.String() + `],"k":4,"psi":3000}`,
		server.PathServiceValues: `{"facilities":[` + facs.String() + `],"psi":3000}`,
	}
	pol := trajcover.LivePolicy{Manual: true}
	hash := trajcover.HashPartitioner()
	for _, c := range []struct {
		magic  string
		shards int
	}{{"TQSNAP04", 1}, {"TQSHRD03", 2}} {
		idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{Ordering: trajcover.ZOrdering, Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		write := func(name string, w func(io.Writer) error) string {
			var buf bytes.Buffer
			if err := w(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		livePath := write("live.tqlive", idx.WriteSnapshot)
		frozenPath := write("frozen.tqsnap", idx.WriteFrozenSnapshot)
		if head, _ := os.ReadFile(frozenPath); string(head[:8]) != c.magic {
			t.Fatalf("%d shards wrote %q, want %s", c.shards, head[:8], c.magic)
		}
		want := map[string][]byte{}
		for _, mmap := range []bool{false, true} {
			for _, path := range []string{livePath, frozenPath} {
				name := fmt.Sprintf("%s, mmap %v", filepath.Base(path), mmap)
				booted, err := buildIndex(path, mmap, 0, 1, 1, hash, pol)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				srv := server.New(booted, server.Config{Workers: 2, QueueDepth: 4})
				ts := httptest.NewServer(srv.Handler())
				post := func(path, body string) (int, []byte) {
					resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					got, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Fatal(err)
					}
					return resp.StatusCode, got
				}
				for path, body := range reads {
					status, got := post(path, body)
					if status != http.StatusOK {
						t.Fatalf("%s %s: %d %s", name, path, status, got)
					}
					if want[path] == nil {
						want[path] = got // the first boot is the heap TQLIVE02 one
					} else if !bytes.Equal(got, want[path]) {
						t.Fatalf("%s %s answered\n%s\nwant the TQLIVE02 boot's\n%s", name, path, got, want[path])
					}
				}
				if status, got := post(server.PathInsert, `{"id":900001,"points":[[1000,1000],[2000,2000]]}`); status != http.StatusOK {
					t.Fatalf("%s: insert: %d %s", name, status, got)
				}
				if booted.Len() != len(users)+1 {
					t.Fatalf("%s: Len %d after an insert, want %d", name, booted.Len(), len(users)+1)
				}
				ts.Close()
				srv.Close()
			}
		}
	}
}
