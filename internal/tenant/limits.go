package tenant

// Per-tenant admission limits and the overrides document that carries
// them. The file is one JSON object, a two-level map — defaults plus
// per-tenant entries:
//
//	{
//	  "defaults": {"max_inflight": 64, "max_queue": 32},
//	  "tenants": {
//	    "noisy": {"max_inflight": 2, "writes_per_sec": 10},
//	    "batch": {"max_timeout_ms": 120000}
//	  }
//	}
//
// Field semantics (each independently): 0 means "inherit the default"
// in a tenant entry and "unlimited" in defaults; -1 means "explicitly
// unlimited" (a tenant entry can widen past a restrictive default);
// positive values limit. ParseOverrides validates everything — tenant
// IDs, field ranges, unknown and repeated keys — and returns an error
// rather than a partially applied document, which is what lets the
// reload path keep the old configuration when a new file is bad.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Unlimited is the explicit "no limit" value a tenant entry uses to
// widen past a restrictive default (0 would mean "inherit").
const Unlimited = -1

// Limits is one tenant's admission configuration. The zero value is
// fully unlimited.
type Limits struct {
	// MaxInflight caps the tenant's admitted-and-unfinished pooled
	// requests (queued + running). Excess is rejected 429.
	MaxInflight int `json:"max_inflight,omitempty"`
	// MaxQueue caps how many of those admitted requests may be waiting
	// for a worker. Excess is rejected 429.
	MaxQueue int `json:"max_queue,omitempty"`
	// WritesPerSec token-buckets /v1/insert and /v1/delete (burst =
	// max(1, rate)). Excess is rejected 429.
	WritesPerSec float64 `json:"writes_per_sec,omitempty"`
	// MaxTimeoutMS caps the tenant's per-request deadline below the
	// server-wide Config.MaxTimeout.
	MaxTimeoutMS int64 `json:"max_timeout_ms,omitempty"`
}

// validate rejects out-of-range fields; where names the entry in errors.
func (l Limits) validate(where string) error {
	checkInt := func(field string, v int64) error {
		if v < Unlimited {
			return fmt.Errorf("tenant: %s: %s must be >= -1, got %d", where, field, v)
		}
		return nil
	}
	if err := checkInt("max_inflight", int64(l.MaxInflight)); err != nil {
		return err
	}
	if err := checkInt("max_queue", int64(l.MaxQueue)); err != nil {
		return err
	}
	if err := checkInt("max_timeout_ms", l.MaxTimeoutMS); err != nil {
		return err
	}
	if math.IsNaN(l.WritesPerSec) || math.IsInf(l.WritesPerSec, 0) || (l.WritesPerSec < 0 && l.WritesPerSec != Unlimited) {
		return fmt.Errorf("tenant: %s: writes_per_sec must be finite and >= 0 (or -1 for unlimited), got %v", where, l.WritesPerSec)
	}
	return nil
}

// Overrides is the limits document: defaults plus per-tenant entries.
type Overrides struct {
	Defaults Limits            `json:"defaults,omitempty"`
	Tenants  map[string]Limits `json:"tenants,omitempty"`
}

// resolve merges one field: a tenant's 0 inherits the default, -1 is
// explicitly unlimited (normalized to 0 so consumers test `> 0`).
func resolveInt(tenant, def int) int {
	v := def
	if tenant != 0 {
		v = tenant
	}
	if v < 0 {
		return 0
	}
	return v
}

func resolveFloat(tenant, def float64) float64 {
	v := def
	if tenant != 0 {
		v = tenant
	}
	if v < 0 {
		return 0
	}
	return v
}

// For returns the effective limits of one tenant: per field, the
// tenant's entry when set, else the default; explicit -1 normalized to
// 0 (= unlimited). A nil Overrides is fully unlimited.
func (o *Overrides) For(id string) Limits {
	if o == nil {
		return Limits{}
	}
	t := o.Tenants[id]
	return Limits{
		MaxInflight:  resolveInt(t.MaxInflight, o.Defaults.MaxInflight),
		MaxQueue:     resolveInt(t.MaxQueue, o.Defaults.MaxQueue),
		WritesPerSec: resolveFloat(t.WritesPerSec, o.Defaults.WritesPerSec),
		MaxTimeoutMS: int64(resolveInt(int(t.MaxTimeoutMS), int(o.Defaults.MaxTimeoutMS))),
	}
}

// validate checks every entry; parse paths call it so no invalid
// document ever leaves this package.
func (o *Overrides) validate() error {
	if err := o.Defaults.validate("defaults"); err != nil {
		return err
	}
	// Deterministic error selection keeps test output stable.
	ids := make([]string, 0, len(o.Tenants))
	for id := range o.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := ValidateID(id); err != nil {
			return fmt.Errorf("tenant: overrides: bad tenant key: %w", err)
		}
		if err := o.Tenants[id].validate("tenant " + id); err != nil {
			return err
		}
	}
	return nil
}

// ParseOverrides parses and validates an overrides document: one strict
// JSON object, in which an unknown field, a field name not spelled
// exactly, a key given twice in one object, and anything after the object
// are errors. An empty (or whitespace-only)
// document is valid and fully unlimited. Any syntax error, unknown or
// repeated key, bad tenant ID, or out-of-range value fails the whole
// document — the caller keeps whatever configuration it already had.
func ParseOverrides(data []byte) (*Overrides, error) {
	o := &Overrides{}
	trimmed := bytes.Trim(data, jsonSpace)
	if len(trimmed) == 0 {
		return o, nil
	}
	if trimmed[0] != '{' {
		// Decode would take a bare null as an empty object.
		return nil, fmt.Errorf("tenant: overrides json: the document must be one JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(o); err != nil {
		return nil, fmt.Errorf("tenant: overrides json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("tenant: overrides json: trailing data after document")
	}
	// Decode keeps the last value of a repeated key and matches field
	// names without regard to case; the walk refuses both.
	if err := uniqueKeys(json.NewDecoder(bytes.NewReader(data)), false); err != nil {
		return nil, fmt.Errorf("tenant: overrides json: %w", err)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"

// fieldNames are the document's field names, spelled as they must be.
var fieldNames = map[string]bool{
	"defaults": true, "tenants": true,
	"max_inflight": true, "max_queue": true, "writes_per_sec": true, "max_timeout_ms": true,
}

// uniqueKeys reads one JSON value from dec and refuses an object in it
// that holds a key twice, naming the key. In the tenants object (tenants
// set) keys are tenant IDs; every other key is a field name, which must be
// spelled exactly as fieldNames spells it — encoding/json matches names
// without regard to case, and the request decoders take a key only as
// spelled. ParseOverrides walks only a document that decoded into
// Overrides, so the walk meets no array and nests three objects deep at
// most.
func uniqueKeys(dec *json.Decoder, tenants bool) error {
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		return err
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string)
		if !tenants && !fieldNames[key] {
			return fmt.Errorf("unknown field %q (field names are lower case, spelled exactly)", key)
		}
		if seen[key] {
			return fmt.Errorf("duplicate key %q", key)
		}
		seen[key] = true
		if err := uniqueKeys(dec, !tenants && key == "tenants"); err != nil {
			return err
		}
	}
	_, err = dec.Token() // the object's '}'
	return err
}

// LoadOverridesFile reads and parses path.
func LoadOverridesFile(path string) (*Overrides, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseOverrides(data)
}
