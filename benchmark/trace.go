package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of
// the layer's public API. Spans of one request share req; parent is the
// id of the span that caused this one, 0 for a request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(req, parent int, name string) int {
	now := time.Now()
	return t.add(req, parent, name, now, now)
}

func (t *tracer) close(id int) {
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// call times fn as a child span.
func (t *tracer) call(req, parent int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(req, parent, name, start, time.Now())
}

// selfTimes returns each span's duration minus its children's, indexed
// like t.spans. A root's only child ran at another time — the direct
// replay of the request the root timed over HTTP — so its self time is
// what the replayed layers do not account for, floored at zero.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.duration()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.duration()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// medianOf is the median of f over the spans called name, or 0 when the
// workload never entered that layer.
func (t *tracer) medianOf(name string, durations []time.Duration) time.Duration {
	var ds []float64
	for i, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(durations[i]))
		}
	}
	sort.Float64s(ds)
	return time.Duration(quantile(ds, 0.5))
}

func (t *tracer) medianDuration(name string) time.Duration {
	ds := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ds[i] = s.duration()
	}
	return t.medianOf(name, ds)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
