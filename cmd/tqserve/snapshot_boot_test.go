package main

import (
	"bytes"
	"errors"
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

// TestBuildIndexBootsEverySnapshotMagic: -snapshot serves a file of the
// one readable magic, TQLIVE02, and refuses a retired one by name. A
// one-shard and a two-shard index's files, each restored on the heap and
// with -mmap, answer /v1/topk and /v1/servicevalues byte for byte as the
// first boot does, and then take an insert; the one-shard file with the
// TQSNAP04 magic in front of its body is an ErrBadSnapshot naming it,
// under both.
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
	dir := t.TempDir()
	want := map[string][]byte{}
	for _, shards := range []int{1, 2} {
		idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{Ordering: trajcover.ZOrdering, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("index-%d.tqlive", shards))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			retired := append([]byte("TQSNAP04"), buf.Bytes()[8:]...)
			retiredPath := filepath.Join(dir, "retired.tqsnap")
			if err := os.WriteFile(retiredPath, retired, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mmap := range []bool{false, true} {
				_, err := buildIndex(retiredPath, mmap, 0, 1, 1, hash, pol)
				if !errors.Is(err, trajcover.ErrBadSnapshot) || !strings.Contains(err.Error(), "(TQSNAP04) is no longer readable") {
					t.Fatalf("a TQSNAP04 file, mmap %v: err = %v, want ErrBadSnapshot naming TQSNAP04", mmap, err)
				}
			}
		}
		for _, mmap := range []bool{false, true} {
			name := fmt.Sprintf("%d shards, mmap %v", shards, mmap)
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
					want[path] = got // the first boot is the one-shard heap one
				} else if !bytes.Equal(got, want[path]) {
					t.Fatalf("%s %s answered\n%s\nwant the first boot's\n%s", name, path, got, want[path])
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
