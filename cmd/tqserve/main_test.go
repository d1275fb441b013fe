package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
)

// TestRunServesAndDrains boots tqserve on an ephemeral port with a
// synthetic corpus, serves a health check and a topk query, then
// delivers SIGTERM and asserts a clean drain.
func TestRunServesAndDrains(t *testing.T) {
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(
			[]string{"-addr", "127.0.0.1:0", "-synthetic", "500", "-shards", "2", "-workers", "2", "-queue", "8"},
			&out, sig, func(addr string) { ready <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"facilities":[{"id":1,"stops":[[500,500],[20000,15000]]}],"k":1,"psi":300}`
	resp, err = http.Post(base+"/v1/topk", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), `"results"`) {
		t.Fatalf("topk: %d %s", resp.StatusCode, got)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "draining") || !strings.Contains(out.String(), "drained") {
		t.Fatalf("drain log missing: %s", out.String())
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestBuildIndexErrors pins the CLI's configuration failure modes.
func TestBuildIndexErrors(t *testing.T) {
	var pol trajcover.LivePolicy
	hash := trajcover.HashPartitioner()
	if _, err := buildIndex("", false, 0, 1, 1, hash, pol); err == nil {
		t.Fatal("no data source accepted")
	}
	if _, err := buildIndex("/does/not/exist.tqlive", false, 0, 1, 1, hash, pol); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestRunWALRecovery boots tqserve with -wal-dir, writes through HTTP,
// drains, then reboots against the same directory: the -synthetic seed
// only applies to the first boot, and the second boot must recover the
// corpus including the post-seed writes from checkpoint + WAL.
func TestRunWALRecovery(t *testing.T) {
	walDir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-synthetic", "300", "-shards", "2",
		"-workers", "2", "-queue", "8", "-wal-dir", walDir, "-wal-sync", "always",
	}

	boot := func() (addr string, sig chan os.Signal, done chan error, out *bytes.Buffer) {
		sig = make(chan os.Signal, 1)
		ready := make(chan string, 1)
		out = &bytes.Buffer{}
		done = make(chan error, 1)
		go func() { done <- run(args, out, sig, func(a string) { ready <- a }) }()
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("run exited before ready: %v\n%s", err, out.String())
		case <-time.After(60 * time.Second):
			t.Fatal("server never became ready")
		}
		return addr, sig, done, out
	}
	stop := func(sig chan os.Signal, done chan error, out *bytes.Buffer) {
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("server did not drain after SIGTERM")
		}
	}
	indexLen := func(addr string) int {
		resp, err := http.Get("http://" + addr + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Index struct {
				Len int `json:"len"`
			} `json:"index"`
			WAL *struct {
				Records uint64 `json:"records"`
			} `json:"wal"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.WAL == nil {
			t.Fatal("statsz has no wal section on a -wal-dir boot")
		}
		return st.Index.Len
	}

	addr, sig, done, out := boot()
	if !strings.Contains(out.String(), "tqserve: wal "+walDir) {
		t.Fatalf("wal banner missing: %s", out.String())
	}
	if n := indexLen(addr); n != 300 {
		t.Fatalf("first boot len %d, want 300", n)
	}
	body := `{"id":900001,"points":[[123,456],[789,1011]]}`
	resp, err := http.Post("http://"+addr+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, got)
	}
	resp, err = http.Post("http://"+addr+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), `"ok":true`) {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, got)
	}
	stop(sig, done, out)
	http.DefaultClient.CloseIdleConnections()

	// Second boot: same flags, but the corpus must come from the WAL
	// directory (300 seeded + 1 inserted), not a fresh -synthetic build.
	addr, sig, done, out = boot()
	if n := indexLen(addr); n != 301 {
		t.Fatalf("recovered len %d, want 301", n)
	}
	resp, err = http.Post("http://"+addr+"/v1/delete", "application/json", strings.NewReader(`{"id":900001}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(got), `"found":true`) {
		t.Fatalf("delete of recovered trajectory: %d %s", resp.StatusCode, got)
	}
	stop(sig, done, out)
	http.DefaultClient.CloseIdleConnections()
}

// TestRunMultiTenantOverridesReload boots tqserve in multi-tenant mode
// with an overrides file and drives the full reload story over HTTP:
// the boot limits throttle a tenant's writes, a loosened rewrite +
// SIGHUP lifts the limit without a restart, an INVALID rewrite keeps
// the loosened limits in force (and counts a failure on /statsz), and
// a tightening rewrite + SIGHUP throttles the tenant again. SIGHUP is
// the only reload trigger, so the reload and fail counts are exact.
func TestRunMultiTenantOverridesReload(t *testing.T) {
	root := t.TempDir()
	ovrPath := filepath.Join(t.TempDir(), "limits.json")
	// writes_per_sec 0.001 => burst 1: the first write lands, the second
	// is a deterministic 429 (the next token is ~17 minutes away).
	tight := `{"tenants": {"t1": {"writes_per_sec": 0.001}}}`
	if err := os.WriteFile(ovrPath, []byte(tight), 0o644); err != nil {
		t.Fatal(err)
	}

	sig := make(chan os.Signal, 4)
	ready := make(chan string, 1)
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(
			[]string{"-addr", "127.0.0.1:0", "-tenant-root", root, "-synthetic", "100",
				"-shards", "2", "-workers", "2", "-queue", "8",
				"-overrides-file", ovrPath},
			&out, sig, func(addr string) { ready <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	if !strings.Contains(out.String(), "tqserve: tenants under "+root) {
		t.Fatalf("tenant banner missing: %s", out.String())
	}

	insert := func(id int) (int, string) {
		t.Helper()
		body := fmt.Sprintf(`{"id":%d,"points":[[100,100],[200,200]],"tenant":"t1"}`, id)
		resp, err := http.Post(base+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(got)
	}

	// Boot limits in force: one write per ~17 min for t1.
	if status, body := insert(1); status != http.StatusOK {
		t.Fatalf("first t1 insert: %d %s", status, body)
	}
	if status, body := insert(2); status != http.StatusTooManyRequests || !strings.Contains(body, "writes_per_sec") {
		t.Fatalf("second t1 insert: %d %s (want 429 over writes_per_sec)", status, body)
	}
	if !dirExistsForTest(filepath.Join(root, "t1")) {
		t.Fatal("t1 write did not create its tenant directory")
	}

	// Loosen + SIGHUP: the same write that just bounced must now land —
	// no restart.
	if err := os.WriteFile(ovrPath, []byte(`{"tenants": {"t1": {"writes_per_sec": -1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "overrides reloaded") {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never logged: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, body := insert(2); status != http.StatusOK {
		t.Fatalf("t1 insert after loosening: %d %s", status, body)
	}

	// Invalid rewrite + SIGHUP: the old (loosened) limits stay in force
	// and the failure is logged and counted.
	if err := os.WriteFile(ovrPath, []byte(`{"tenants": {"t1": {"writes_per_secc": 1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "keeping previous limits") {
		if time.Now().After(deadline) {
			t.Fatalf("invalid reload never logged: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, body := insert(3); status != http.StatusOK {
		t.Fatalf("t1 insert after invalid rewrite (limits must not tighten): %d %s", status, body)
	}
	var st struct {
		Overrides *struct {
			Reloads uint64 `json:"reloads"`
			Fails   uint64 `json:"fails"`
		} `json:"overrides"`
	}
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The boot load and the first SIGHUP's; the second SIGHUP's failed.
	if st.Overrides == nil || st.Overrides.Reloads != 2 || st.Overrides.Fails != 1 {
		t.Fatalf("statsz overrides section %+v, want 2 reloads and 1 fail", st.Overrides)
	}

	// Tighten again + SIGHUP: the changed limit starts t1 from a full
	// burst of one token, so its first write lands and its second is a
	// 429 again.
	if err := os.WriteFile(ovrPath, []byte(tight), 0o644); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	deadline = time.Now().Add(10 * time.Second)
	for strings.Count(out.String(), "overrides reloaded") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second SIGHUP reload never logged: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, body := insert(10); status != http.StatusOK {
		t.Fatalf("first t1 insert after tightening: %d %s (want 200 from a full burst)", status, body)
	}
	if status, body := insert(11); status != http.StatusTooManyRequests || !strings.Contains(body, "writes_per_sec") {
		t.Fatalf("t1 insert after tightening: %d %s (want 429 over writes_per_sec)", status, body)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestRunFlagConflictsAndBadOverrides pins the CLI's refusal modes: a
// bad overrides file at boot, -tenant-root combined with -wal-dir,
// -tenant-root with -snapshot, and an unknown -partitioner under every
// way of building an index are all startup errors, not silent serving
// with wrong config. An unknown partitioner fails before anything is
// built — no WAL, no tenant directory — naming the value.
func TestRunFlagConflictsAndBadOverrides(t *testing.T) {
	badOvr := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badOvr, []byte(`{"tenants": {"t1": {"bogus_key": 1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-tenant-root", t.TempDir(), "-synthetic", "10", "-overrides-file", badOvr},
		{"-addr", "127.0.0.1:0", "-tenant-root", t.TempDir(), "-wal-dir", t.TempDir(), "-synthetic", "10"},
		{"-addr", "127.0.0.1:0", "-tenant-root", t.TempDir(), "-snapshot", "x.tqlive"},
	} {
		var out bytes.Buffer
		sig := make(chan os.Signal)
		if err := run(args, &out, sig, func(string) {}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	walDir, tenantRoot := t.TempDir(), t.TempDir()
	for _, args := range [][]string{
		{"-synthetic", "10"},
		{"-synthetic", "10", "-wal-dir", walDir},
		{"-synthetic", "10", "-tenant-root", tenantRoot},
		{"-frontend", "-backends", "http://127.0.0.1:1"},
	} {
		args = append(args, "-addr", "127.0.0.1:0", "-partitioner", "bogus")
		var out bytes.Buffer
		sig := make(chan os.Signal)
		err := run(args, &out, sig, func(string) { t.Errorf("args %v: listening", args) })
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Fatalf("args %v: error %v, want one naming the partitioner", args, err)
		}
	}
	for _, dir := range []string{walDir, tenantRoot} {
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%s after an unknown partitioner: %d entries (%v), want none", dir, len(ents), err)
		}
	}
}

// dirExistsForTest mirrors the registry's on-disk tenant check.
func dirExistsForTest(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// syncBuffer is a bytes.Buffer safe for the run goroutine to write
// while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
