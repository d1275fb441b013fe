package server

// The request edge every tqserve role answers through: a backend Server,
// the distributed frontend (internal/dist) and a replica's wrapper write
// their method checks, body refusals, transient rejections and JSON
// answers with these functions, so a client sees the same status,
// headers and bytes from each. Only the messages a role words itself
// ("server draining", "frontend draining") and its counters are its own.

import (
	"errors"
	"net/http"
	"time"
)

// RetryAfter is the Retry-After header, in seconds, on every transient
// rejection the server, the distributed frontend and a replica send.
const RetryAfter = "1"

// Header values the answers assign whole: w.Header()[key] = value costs
// no allocation, where Header.Set makes a new one-string slice. net/http
// copies them when it writes the header and never writes into them.
var (
	jsonContentType   = []string{"application/json"}
	retryAfterSeconds = []string{RetryAfter}
	connectionClose   = []string{"close"}
)

// RequirePost answers anything but a POST with 405 and Allow: POST.
func RequirePost(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
			return
		}
		h(w, r)
	}
}

// WriteRaw sends body, already JSON, as the answer.
func WriteRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// WriteJSON sends v, encoded, as the answer.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	WriteRaw(w, status, mustMarshal(v))
}

// RejectRetryable answers any transient rejection — 429 on queue or
// quota pressure, 503 on drain, degraded mode or a lost shard group —
// with a Retry-After hint. Every rejection that a well-behaved client
// should back off and retry goes through here; permanent errors
// (400/404/409/500) never carry the header.
func RejectRetryable(w http.ResponseWriter, status int, msg string) {
	w.Header()["Retry-After"] = retryAfterSeconds
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// RejectBody answers a request body ReadBody could not take: 413 past
// the limit, closing the connection on the unread rest, 400 for anything
// else.
func RejectBody(w http.ResponseWriter, err error) {
	status := bodyErrorStatus(err)
	if status == http.StatusRequestEntityTooLarge {
		w.Header()["Connection"] = connectionClose
	}
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// bodyErrorStatus is the status of a request body that could not be
// taken: 413 past the limit, 400 for anything else.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// RequestTimeout is the deadline a request's timeout_ms asks for: def
// when it names none, else timeout_ms capped at max.
func RequestTimeout(timeoutMS int64, def, max time.Duration) time.Duration {
	if timeoutMS <= 0 {
		return def
	}
	return min(time.Duration(timeoutMS)*time.Millisecond, max)
}
