package tenant

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sample has defaults, tenants that set some fields, and an explicit -1.
const sample = `{
  "defaults": {"max_inflight": 64, "max_queue": 32},
  "tenants": {
    "noisy": {"max_inflight": 2, "writes_per_sec": 10},
    "batch": {"max_timeout_ms": 120000},
    "vip": {"max_inflight": -1}
  }
}`

func sampleWant() *Overrides {
	return &Overrides{
		Defaults: Limits{MaxInflight: 64, MaxQueue: 32},
		Tenants: map[string]Limits{
			"noisy": {MaxInflight: 2, WritesPerSec: 10},
			"batch": {MaxTimeoutMS: 120000},
			"vip":   {MaxInflight: Unlimited},
		},
	}
}

func TestParseOverridesJSON(t *testing.T) {
	o, err := ParseOverrides([]byte(sample))
	if err != nil {
		t.Fatalf("ParseOverrides: %v", err)
	}
	if !reflect.DeepEqual(o, sampleWant()) {
		t.Fatalf("parsed %+v, want %+v", o, sampleWant())
	}
}

func TestParseOverridesEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n", " \t\r\n"} {
		o, err := ParseOverrides([]byte(src))
		if err != nil {
			t.Fatalf("ParseOverrides(%q): %v", src, err)
		}
		if lim := o.For("anyone"); lim != (Limits{}) {
			t.Fatalf("empty document gave limits %+v", lim)
		}
	}
}

func TestParseOverridesErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown top-level", `{"pools": {"a": 1}}`},
		{"top-level scalar", `{"defaults": 3}`},
		{"unknown limit", `{"defaults": {"max_foo": 1}}`},
		{"bad int", `{"defaults": {"max_inflight": "many"}}`},
		{"fractional int", `{"defaults": {"max_inflight": 1.5}}`},
		{"below -1", `{"defaults": {"max_inflight": -2}}`},
		{"nan rate", `{"defaults": {"writes_per_sec": -3}}`},
		{"bad tenant id", `{"tenants": {"../evil": {"max_inflight": 1}}}`},
		{"tenant scalar", `{"tenants": {"a": 1}}`},
		{"duplicate tenant", `{"tenants": {"a": {"max_queue": 1}, "a": {"max_queue": 2}}}`},
		{"duplicate key", `{"defaults": {"max_queue": 1, "max_queue": 2}}`},
		{"duplicate key in tenant", `{"tenants": {"a": {"max_queue": 1, "max_queue": 2}}}`},
		{"duplicate top-level", `{"defaults": {}, "defaults": {"max_queue": 2}}`},
		{"duplicate key folded", `{"defaults": {"max_queue": 1, "MAX_QUEUE": 2}}`},
		{"field in upper case", `{"defaults": {"MAX_QUEUE": 2}}`},
		{"top-level field in upper case", `{"TENANTS": {"a": {"max_queue": 1}}}`},
		{"tenant field in mixed case", `{"tenants": {"a": {"Writes_Per_Sec": 1}}}`},
		{"defaults capitalised", `{"Defaults": {"max_inflight": 4}}`},
		{"field with a long s", `{"tenantſ": {"a": {"max_queue": 1}}}`},
		{"json unknown field", `{"defaults": {"max_requests": 1}}`},
		{"json trailing", `{"defaults": {}} {"tenants": {}}`},
		{"json trailing brace", `{"defaults": {}}}`},
		{"json bad tenant", `{"tenants": {"a/b": {"max_queue": 1}}}`},
		{"yaml", "defaults:\n  max_queue: 1\n"},
		{"comment only", "# only comments\n"},
		{"null", "null"},
		{"array", `[{"defaults": {}}]`},
		{"non-JSON space only", "\u00a0"},
	}
	for _, c := range cases {
		o, err := ParseOverrides([]byte(c.src))
		if err == nil {
			t.Errorf("%s: ParseOverrides accepted %q", c.name, c.src)
		} else if o != nil {
			t.Errorf("%s: error %v returned a document", c.name, err)
		}
	}
	// A repeated key is named.
	for src, key := range map[string]string{
		`{"tenants": {"a": {"max_queue": 1}, "a": {"max_queue": 2}}}`: `"a"`,
		`{"defaults": {"max_queue": 1, "max_queue": 2}}`:              `"max_queue"`,
	} {
		if _, err := ParseOverrides([]byte(src)); err == nil || !strings.Contains(err.Error(), "duplicate key "+key) {
			t.Errorf("ParseOverrides(%s): error %v, want one naming %s", src, err, key)
		}
	}
	// Tenant IDs are case-sensitive: "a" and "A" are two tenants.
	o, err := ParseOverrides([]byte(`{"tenants": {"a": {"max_queue": 1}, "A": {"max_queue": 2}}}`))
	if err != nil || o.For("a").MaxQueue != 1 || o.For("A").MaxQueue != 2 {
		t.Fatalf("tenants a and A: %+v, %v", o, err)
	}
}

func TestOverridesFor(t *testing.T) {
	o, err := ParseOverrides([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Unknown tenant inherits the defaults wholesale.
	if lim := o.For("quiet"); lim != (Limits{MaxInflight: 64, MaxQueue: 32}) {
		t.Fatalf("quiet: %+v", lim)
	}
	// Set fields override, unset fields inherit.
	if lim := o.For("noisy"); lim != (Limits{MaxInflight: 2, MaxQueue: 32, WritesPerSec: 10}) {
		t.Fatalf("noisy: %+v", lim)
	}
	// Explicit -1 widens past the default and normalizes to 0.
	if lim := o.For("vip"); lim != (Limits{MaxInflight: 0, MaxQueue: 32}) {
		t.Fatalf("vip: %+v", lim)
	}
	// nil receiver is fully unlimited.
	var nilo *Overrides
	if lim := nilo.For("x"); lim != (Limits{}) {
		t.Fatalf("nil: %+v", lim)
	}
}

func TestLoadOverridesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "overrides.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := LoadOverridesFile(path)
	if err != nil {
		t.Fatalf("LoadOverridesFile: %v", err)
	}
	if !reflect.DeepEqual(o, sampleWant()) {
		t.Fatalf("loaded %+v", o)
	}
	if _, err := LoadOverridesFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWatcherKeepsOldOnInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "overrides.json")
	if err := os.WriteFile(path, []byte(`{"defaults": {"max_inflight": 4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var swaps int
	var cur *Overrides
	var lastErr error
	w := NewWatcher(path,
		func(o *Overrides) { swaps++; cur = o },
		func(err error) { lastErr = err })
	if err := w.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := cur.For("x").MaxInflight; got != 4 {
		t.Fatalf("initial max_inflight = %d", got)
	}

	// Invalid rewrite: old document must stay in force, error surfaced.
	if err := os.WriteFile(path, []byte(`{"defaults": {"max_inflight": "banana"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	w.Reload()
	if lastErr == nil {
		t.Fatal("invalid reload produced no error")
	}
	if got := cur.For("x").MaxInflight; got != 4 {
		t.Fatalf("invalid reload changed limits: max_inflight = %d", got)
	}
	if reloads, fails := w.Stats(); reloads != 1 || fails != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", reloads, fails)
	}

	// Valid rewrite swaps in.
	if err := os.WriteFile(path, []byte(`{"defaults": {"max_inflight": 9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	w.Reload()
	if got := cur.For("x").MaxInflight; got != 9 {
		t.Fatalf("valid reload ignored: max_inflight = %d", got)
	}
	if swaps != 2 {
		t.Fatalf("swaps = %d, want 2", swaps)
	}
}
