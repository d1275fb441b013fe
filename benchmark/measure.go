package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the stack up from scratch;
// setup_s is the median.
const setupRepeats = 3

// minWindows is the fewest windows a timed phase measures, however short
// -seconds is.
const minWindows = 3

// config is one run's arguments.
type config struct {
	seed     int64
	seconds  float64
	scale    float64
	traceOut string
	// bodies is the number of distinct query bodies: distinctBodies,
	// except in the self-test, which shrinks it and every operation count
	// with it.
	bodies int
	// logf reports progress; results never go through it.
	logf func(format string, args ...any)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's answer for one workload, in the shape the
// last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	inputsSHA string
	firstErr  error
}

func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// count folds a batch of checked operations into attempted/failed.
func (r *result) count(samples []sample) {
	n, err := failures(samples)
	r.Attempted += len(samples)
	r.Failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// bench is a set-up stack with its inputs, checked streams and clients:
// what both the timed and the traced run start from.
type bench struct {
	sp      *spec
	cfg     config
	in      *inputs
	st      *stack
	want    [][]byte // expected answer per body; nil for churn_mix
	stream  opStream
	clients []*client
	dir     string
	setups  []float64 // wall seconds of each set-up
}

// prepare sets the workload up `repeats` times from scratch, keeping the
// last instance, computes the expected answers and sends every distinct
// body once, checked but untimed.
func prepare(sp *spec, cfg config, repeats int, res *result) (*bench, error) {
	b := &bench{sp: sp, cfg: cfg}
	root, err := os.MkdirTemp("", "tqbenchmark-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	b.dir = root
	for i := 0; i < repeats; i++ {
		if b.st != nil {
			b.st.close()
			b.st, b.in = nil, nil
			runtime.GC()
		}
		dir := fmt.Sprintf("%s/setup-%d", root, i)
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.close()
			return nil, err
		}
		t := time.Now()
		b.in = generate(cfg.seed, cfg.scale, sp.shape, cfg.bodies)
		if b.st, err = sp.setup(b.in, dir, cfg.scale); err != nil {
			b.close()
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		b.setups = append(b.setups, time.Since(t).Seconds())
		cfg.logf("%s: set-up %d/%d took %.3fs", sp.name, i+1, repeats, b.setups[i])
	}
	res.inputsSHA = b.in.sha

	if sp.reference != nil {
		ref, err := sp.reference(b.in, b.st)
		if err == nil {
			b.want, err = expectedAnswers(b.in, ref)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("%s expected answers: %w", sp.name, err)
		}
	}
	ops := queryOps(b.in, b.want)
	if b.st.churn != nil {
		b.st.churn.queries = ops
		b.stream = b.st.churn
	} else {
		b.stream = &cycle{ops: ops}
		// Only churn_mix reads the corpus again. Elsewhere the index owns
		// it, and hot_repeat's copy lives in the mapped file, which
		// heap_live_mb must not see twice.
		b.in.users = nil
	}
	b.clients = newClients(b.st.url)

	// Warm-up: every distinct body once through the read-only cycle, so
	// connections are open, pools are filled and hot_repeat's cache holds
	// every answer before anything is timed.
	warm := runWindow(b.clients, &cycle{ops: ops}, len(ops)/loadClients)
	res.count(warm.samples)
	return b, nil
}

func (b *bench) close() {
	closeClients(b.clients)
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
	if err := os.RemoveAll(b.dir); err != nil {
		b.cfg.logf("%s: %v", b.sp.name, err)
	}
}

// ops scales one of the spec's operation counts, stated for
// distinctBodies bodies, to the bodies this run has.
func (b *bench) ops(n int) int { return n * b.cfg.bodies / distinctBodies }

// timedPhase measures whole windows for the given time.
func (b *bench) timedPhase(seconds float64) phase {
	return runPhase(b.clients, b.stream, b.ops(b.sp.windowOps)/loadClients, seconds, minWindows)
}

// finish runs the check that follows churn_mix's phases: the survivor
// comparison, counted as one more operation.
func (b *bench) finish(res *result) {
	if b.st.churn == nil {
		return
	}
	res.Attempted++
	if err := b.st.churn.verify(b.st, b.clients[0]); err != nil {
		res.Failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// measure is the untraced run: the end-to-end metrics.
func measure(sp *spec, cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	b, err := prepare(sp, cfg, setupRepeats, res)
	if err != nil {
		return nil, err
	}
	defer b.close()

	p := b.timedPhase(cfg.seconds)
	res.count(p.samples())
	cfg.logf("%s: %d windows of %d operations", sp.name, len(p.windows), b.ops(sp.windowOps))
	b.finish(res)

	res.set("setup_s", median(b.setups), "s")
	res.set("allocs_per_req", p.medianOver(func(w *window) float64 {
		return float64(w.to.mallocs-w.from.mallocs) / w.ops()
	}), "count")
	res.set("heap_live_mb", b.liveHeapMB(), "MB")
	res.Correct = res.Failed == 0
	return res, nil
}

// liveHeapMB is the heap that survives two forced collections once the
// phase's garbage is gone: the index (folded, where it took writes), the
// server, and the benchmark's own inputs and answers.
func (b *bench) liveHeapMB() float64 {
	if b.st.churn != nil {
		if err := b.st.idx.Compact(); err != nil {
			b.cfg.logf("%s: compact: %v", b.sp.name, err)
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
