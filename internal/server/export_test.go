package server

import "testing"

// What the external tests (package server_test, which may import the
// distributed frontend) read of the server's slot admission.

// BlockSlots takes n of s's slots until the returned function gives them
// back.
func BlockSlots(t *testing.T, s *Server, n int) func() { return blockWorkers(t, s, n) }

// Waiting is how many handlers and exchange frames wait for a slot.
func Waiting(s *Server) int64 { return s.waiting.Load() }
