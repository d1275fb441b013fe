package tenant

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadOverrides holds ParseOverrides to its contract under arbitrary
// bytes: it never panics, it accepts nothing but a blank document or a
// JSON object (the YAML-shaped seeds and corpus entries, from when the
// document could also be YAML, are refused), and any accepted document
// re-validates and resolves cleanly — so a watcher swap can never install limits a direct
// parse would have rejected (the "invalid file keeps the old config"
// invariant depends on accept/reject being total and consistent).
func FuzzLoadOverrides(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("# comment only\n"))
	f.Add([]byte("defaults:\n  max_inflight: 64\n  max_queue: 32\n"))
	f.Add([]byte("tenants:\n  noisy:\n    max_inflight: 2\n    writes_per_sec: 10\n"))
	f.Add([]byte("tenants:\n  a:\n    max_timeout_ms: -1\n"))
	f.Add([]byte(`{"defaults": {"max_inflight": 8}}`))
	f.Add([]byte(`{"tenants": {"a": {"writes_per_sec": 1.5}}}`))
	f.Add([]byte("defaults:\n\tmax_inflight: 1\n"))
	f.Add([]byte("tenants:\n  ../evil:\n    max_queue: 1\n"))
	f.Add([]byte("defaults: 3\n"))
	f.Add([]byte("defaults:\n  max_inflight: -2\n"))
	f.Add([]byte(`{"defaults": {"max_inflight": 1}} trailing`))
	f.Add([]byte("{ not json"))
	f.Add([]byte(strings.Repeat(" ", 100) + "x: 1"))
	f.Add([]byte("tenants:\n  a:\n    max_queue: 1\n  a:\n    max_queue: 2\n"))
	f.Add([]byte(`{"tenants":{"a":{"max_queue":1},"a":{"max_queue":2}}}`))
	f.Add([]byte(`{"defaults":{"max_queue":1,"max_queue":2}}`))
	f.Add([]byte(`{"defaults":{"MAX_QUEUE":2}}`))
	f.Add([]byte(`{"TENANTS":{"a":{"max_queue":1}}}`))
	f.Add([]byte(`{"tenants":{"a":{"Writes_Per_Sec":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ParseOverrides(data)
		if err != nil {
			if o != nil {
				t.Fatalf("error %v returned a non-nil document", err)
			}
			return
		}
		if trimmed := bytes.Trim(data, jsonSpace); len(trimmed) > 0 && trimmed[0] != '{' {
			t.Fatalf("accepted %q, which is not a JSON object", data)
		}
		// Accepted documents are internally valid: every tenant key passes
		// ValidateID and resolution yields non-negative effective limits.
		if err := o.validate(); err != nil {
			t.Fatalf("accepted document fails validate: %v", err)
		}
		for id := range o.Tenants {
			if err := ValidateID(id); err != nil {
				t.Fatalf("accepted document holds bad tenant id %q: %v", id, err)
			}
			lim := o.For(id)
			if lim.MaxInflight < 0 || lim.MaxQueue < 0 || lim.WritesPerSec < 0 || lim.MaxTimeoutMS < 0 {
				t.Fatalf("resolved limits negative: %+v", lim)
			}
		}
		if lim := o.For("nonexistent"); lim.MaxInflight < 0 || lim.MaxQueue < 0 || lim.WritesPerSec < 0 || lim.MaxTimeoutMS < 0 {
			t.Fatalf("resolved default limits negative: %+v", lim)
		}
	})
}
