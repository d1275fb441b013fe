// Package tenant holds the tenant dimension of the serving stack: ID
// validation, per-tenant admission limits with a runtime-reloadable
// overrides file, and the admission Gate the HTTP front end enforces
// those limits through. The registry mapping tenant IDs to live index
// instances lives in the public package (trajcover.OpenTenantRegistry)
// because it hangs per-tenant WAL directories off Index; everything here
// is index-agnostic and imported by both the registry and
// internal/server.
//
// The design follows tempo's modules/overrides decomposition: limits
// are data (a tenant → limits map with defaults), loaded from a file
// that can be re-read at runtime, where an invalid new file keeps the
// old configuration in force rather than dropping limits.
package tenant

import (
	"errors"
	"fmt"
)

// DefaultID is the tenant every request without an explicit tenant
// belongs to — the backward-compatible single-tenant world.
const DefaultID = "default"

// MaxIDLen bounds tenant IDs; they become directory names, statsz keys,
// and log fields, so they stay short.
const MaxIDLen = 64

// BadIDError rejects a malformed tenant ID. It maps to a 4xx at the
// HTTP boundary: a bad tenant name is a client error, and it must be
// rejected BEFORE any directory or index springs into existence.
type BadIDError struct{ msg string }

func (e *BadIDError) Error() string { return e.msg }

func badIDf(format string, args ...any) error {
	return &BadIDError{msg: fmt.Sprintf(format, args...)}
}

// ValidateID accepts exactly the tenant IDs that are safe to use as a
// single path component under the tenant WAL root: 1–64 bytes of
// [a-zA-Z0-9._-], starting with a letter or digit, with ".." forbidden
// anywhere. Everything else — empty, oversized, path separators,
// traversal sequences, control bytes, UTF-8 beyond ASCII — is a
// *BadIDError. The server rejects such requests 4xx without touching
// the registry, so an invalid ID can never create state.
func ValidateID(id string) error {
	if id == "" {
		return badIDf("tenant: empty tenant id")
	}
	if len(id) > MaxIDLen {
		return badIDf("tenant: id longer than %d bytes", MaxIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return badIDf("tenant: id %q must start with a letter or digit", id)
			}
		default:
			return badIDf("tenant: id %q contains %q (allowed: a-z A-Z 0-9 . _ -)", id, c)
		}
		// ".." anywhere is rejected outright: combined with the
		// path-separator ban this makes traversal unrepresentable, and
		// being strict here costs nothing.
		if c == '.' && i > 0 && id[i-1] == '.' {
			return badIDf("tenant: id %q contains \"..\"", id)
		}
	}
	return nil
}

// IsBadID reports whether err is a tenant-ID validation failure (a
// client error), as opposed to an operational one.
func IsBadID(err error) bool {
	var b *BadIDError
	return errors.As(err, &b)
}
