package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// loadClients is the closed loop's width: one caller per core, each on
// its own keep-alive connection, sending its next request only when the
// previous answer has arrived.
const loadClients = 2

// op is one request and the check its answer must pass.
type op struct {
	path string
	body []byte
	// query is the index of the distinct query body this operation
	// sends, or notQuery for a write.
	query int
	// check reports why the 200 answer is wrong, or nil.
	check func(answer []byte) error
}

const notQuery = -1

// opStream yields a client's operations in order. Implementations are
// deterministic: client c's i-th operation never depends on timing.
type opStream interface {
	next(client int) op
}

// sample is one completed operation as the client saw it.
type sample struct {
	start, end     time.Time
	query          int // op.query
	sent, received int // body bytes
	err            error
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// client is one closed-loop caller.
type client struct {
	id   int
	base string
	hc   *http.Client
}

func newClients(base string) []*client {
	cs := make([]*client, loadClients)
	for i := range cs {
		cs[i] = &client{id: i, base: base, hc: &http.Client{
			Timeout:   2 * serverTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one operation and checks its answer.
func (c *client) do(o op) sample {
	s := sample{query: o.query, sent: len(o.body), start: time.Now()}
	resp, err := c.hc.Post(c.base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		s.end, s.err = time.Now(), err
		return s
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end, s.received = time.Now(), len(answer)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s: status %d: %.200s", o.path, resp.StatusCode, answer)
	default:
		s.err = o.check(answer)
	}
	return s
}

// counters are the process-wide readings taken at window boundaries,
// when no request is in flight.
type counters struct {
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// window is one fixed-operation-count slice of a phase.
type window struct {
	samples []sample
	from    counters
	to      counters
}

func (w *window) ops() float64 { return float64(len(w.samples)) }

// perSecond is the closed loop's throughput: each client's operations over
// the time that client was busy, summed. The wait at the window's closing
// barrier — the faster client idle while the slower one finishes its last
// request — is the benchmark's artefact and is left out.
func (w *window) perSecond() float64 {
	per := len(w.samples) / loadClients // samples are grouped by client
	rate := 0.0
	for c := 0; c < loadClients; c++ {
		mine := w.samples[c*per : (c+1)*per]
		rate += float64(per) / mine[per-1].end.Sub(mine[0].start).Seconds()
	}
	return rate
}

// latenciesMS returns the sorted latencies of the samples' reads or
// writes.
func latenciesMS(samples []sample, writes bool) []float64 {
	var out []float64
	for _, s := range samples {
		if (s.query == notQuery) == writes {
			out = append(out, s.ms())
		}
	}
	sort.Float64s(out)
	return out
}

// fastestMS is the quiet-host latency of a phase: for each distinct query
// body, the fastest checked answer any of its requests got, averaged over
// the bodies. Interference from the host's other tenants only ever adds
// time and comes in bursts, so with dozens of tries per body the fastest
// one ran nearly undisturbed; medians over the same samples move by a
// quarter from run to run on this host, this does not. A slower program
// raises every try, the fastest included.
func fastestMS(samples []sample, bodies int) float64 {
	best := make([]float64, bodies)
	for _, s := range samples {
		if s.query != notQuery && (best[s.query] == 0 || s.ms() < best[s.query]) {
			best[s.query] = s.ms()
		}
	}
	return mean(best)
}

// runWindow has every client execute opsPerClient operations from the
// stream and returns when all have finished, so the boundary readings see
// a quiet server.
func runWindow(cs []*client, stream opStream, opsPerClient int) window {
	per := make([][]sample, len(cs))
	w := window{from: readCounters()}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				per[c.id] = append(per[c.id], c.do(stream.next(c.id)))
			}
		}(c)
	}
	wg.Wait()
	w.to = readCounters()
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w
}

// phase is a sequence of equal windows.
type phase struct {
	windows []window
}

// runPhase repeats windows until `seconds` have passed, and at least
// minWindows times.
func runPhase(cs []*client, stream opStream, opsPerClient int, seconds float64, minWindows int) phase {
	var p phase
	start := time.Now()
	for len(p.windows) < minWindows || time.Since(start).Seconds() < seconds {
		p.windows = append(p.windows, runWindow(cs, stream, opsPerClient))
	}
	return p
}

func (p *phase) samples() []sample {
	var out []sample
	for i := range p.windows {
		out = append(out, p.windows[i].samples...)
	}
	return out
}

// failures returns the failed-operation count and the first error.
func failures(samples []sample) (int, error) {
	n := 0
	var first error
	for _, s := range samples {
		if s.err != nil {
			if first == nil {
				first = s.err
			}
			n++
		}
	}
	return n, first
}

// medianOver is the median across windows of f(window).
func (p *phase) medianOver(f func(*window) float64) float64 {
	vals := make([]float64, len(p.windows))
	for i := range p.windows {
		vals[i] = f(&p.windows[i])
	}
	sort.Float64s(vals)
	return quantile(vals, 0.5)
}

// quantile reads the q-quantile of sorted values by linear interpolation
// between closest ranks; NaN-free for a non-empty slice, 0 for an empty
// one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
