// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section VI) as printed series —
// runtime comparisons for the kMaxRRST and MaxkCovRST methods, quality
// metrics (#users served, approximation ratio), and index construction
// times. cmd/tqbench is its CLI front end; EXPERIMENTS.md records a run.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Config controls an experiment run.
type Config struct {
	// Scale is the fraction of the paper-scale dataset cardinalities to
	// generate (1.0 = full Table II sizes). 0 means 0.02.
	Scale float64 `json:"scale"`
	// Psi is the serving threshold ψ in meters. 0 means
	// datagen.DefaultPsi.
	Psi float64 `json:"psi"`
	// Repeats is the number of timing repetitions (minimum taken).
	// 0 means 3.
	Repeats int `json:"repeats"`
	// Seed drives all data generation.
	Seed int64 `json:"seed"`
	// MaxSeconds soft-bounds a single measured operation: when one
	// repetition exceeds it, no further repetitions run. 0 means 30s.
	MaxSeconds float64 `json:"max_seconds"`
	// NProc is the recording host's core count, stamped by WriteJSON:
	// worker, shard and scatter series only compare between equal values.
	NProc int `json:"nproc,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Psi <= 0 {
		c.Psi = datagen.DefaultPsi
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.MaxSeconds <= 0 {
		c.MaxSeconds = 30
	}
	return c
}

// Series is one method's measurements across the experiment's x-axis.
type Series struct {
	Method string
	Y      []float64
}

// Table is a printed experiment result: x-axis labels and one series per
// method — the same rows/series the paper's figures plot.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	XTicks []string
	Series []Series
}

// Print renders the table in aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
	header := make([]string, 0, len(t.Series)+1)
	header = append(header, t.XLabel)
	for _, s := range t.Series {
		header = append(header, s.Method)
	}
	rows := [][]string{header}
	for i, x := range t.XTicks {
		row := []string{x}
		for _, s := range t.Series {
			if i < len(s.Y) {
				row = append(row, formatY(s.Y[i], t.YLabel))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	fmt.Fprintf(w, "# y-axis: %s\n\n", t.YLabel)
}

func formatY(v float64, ylabel string) string {
	if strings.Contains(ylabel, "seconds") {
		return fmt.Sprintf("%.6f", v)
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx *Context) (*Table, error)
}

// Context carries the run configuration and memoizes datasets and indexes
// shared between experiments.
type Context struct {
	Cfg Config

	ny *datagen.City
	bj *datagen.City

	users   map[string]*trajectory.Set
	indexes map[string]*shard.Live
	bases   map[string]*query.Baseline
	routes  map[string][]*trajectory.Facility
}

// NewContext builds a fresh experiment context.
func NewContext(cfg Config) *Context {
	return &Context{
		Cfg:     cfg.withDefaults(),
		ny:      datagen.NewYork(),
		bj:      datagen.Beijing(),
		users:   map[string]*trajectory.Set{},
		indexes: map[string]*shard.Live{},
		bases:   map[string]*query.Baseline{},
		routes:  map[string][]*trajectory.Facility{},
	}
}

// scaled converts a paper-scale cardinality to the run scale (minimum 500
// so the indexes stay non-trivial at tiny scales).
func (c *Context) scaled(n int) int {
	s := int(float64(n) * c.Cfg.Scale)
	if s < 500 {
		s = 500
	}
	if s > n {
		s = n
	}
	return s
}

// Dataset kinds.
const (
	dsNYT = "nyt" // taxi trips, two-point
	dsNYF = "nyf" // check-ins, multipoint
	dsBJG = "bjg" // GPS traces, multipoint (long)
)

// Users returns the memoized scaled dataset of a kind and paper-scale
// cardinality.
func (c *Context) Users(kind string, paperN int) *trajectory.Set {
	n := c.scaled(paperN)
	key := fmt.Sprintf("%s/%d", kind, n)
	if s, ok := c.users[key]; ok {
		return s
	}
	var ts []*trajectory.Trajectory
	switch kind {
	case dsNYT:
		ts = datagen.TaxiTrips(c.ny, n, c.Cfg.Seed+1)
	case dsNYF:
		// The paper's 212,751 NYF "trajectories" come from a checkin
		// corpus of similar size, so daily sequences are short (2–3
		// stops); compact trajectories are what lets the F-TQ variant
		// store entries deep.
		ts = datagen.Checkins(c.ny, n, 3, c.Cfg.Seed+2)
	case dsBJG:
		ts = datagen.GPSTraces(c.bj, n, 10, 60, c.Cfg.Seed+3)
	default:
		panic("bench: unknown dataset kind " + kind)
	}
	set := trajectory.MustNewSet(ts)
	c.users[key] = set
	return set
}

// Routes returns memoized facilities for a city with the given count and
// stops per route.
func (c *Context) Routes(city string, n, stops int) []*trajectory.Facility {
	key := fmt.Sprintf("%s/%d/%d", city, n, stops)
	if fs, ok := c.routes[key]; ok {
		return fs
	}
	model := c.ny
	if city == "bj" {
		model = c.bj
	}
	fs := datagen.BusRoutes(model, n, stops, c.Cfg.Seed+4)
	c.routes[key] = fs
	return fs
}

// Index returns a memoized one-shard index over the given dataset,
// variant and ordering — one base served as an epoch with nothing
// pending, the unit every shard of a served index is. The figures read
// it four ways: exact values through its scatter (the served pass),
// best-first top-k and its seed bound through query.BestFirstTopK and
// query.SeedBound over Base(0), and coverage through Source.
func (c *Context) Index(kind string, paperN int, v tqtree.Variant, o tqtree.Ordering) *shard.Live {
	users := c.Users(kind, paperN)
	key := fmt.Sprintf("%s/%d/%v/%v", kind, users.Len(), v, o)
	if f, ok := c.indexes[key]; ok {
		return f
	}
	fz, err := tqtree.BuildFrozen(users.All, tqtree.Options{Variant: v, Ordering: o})
	if err != nil {
		panic(fmt.Sprintf("bench: build tree: %v", err))
	}
	f, err := shard.LiveOf([]*tqtree.Frozen{fz}, shard.Hash{}, shard.Policy{})
	if err != nil {
		panic(fmt.Sprintf("bench: index: %v", err))
	}
	c.indexes[key] = f
	return f
}

// Baseline returns a memoized baseline index over the dataset.
func (c *Context) Baseline(kind string, paperN int, v tqtree.Variant) *query.Baseline {
	users := c.Users(kind, paperN)
	key := fmt.Sprintf("%s/%d/%v", kind, users.Len(), v)
	if b, ok := c.bases[key]; ok {
		return b
	}
	b := query.NewBaseline(users, v)
	c.bases[key] = b
	return b
}

// Params returns the query parameters for a scenario at the configured ψ.
func (c *Context) Params(sc service.Scenario) query.Params {
	return query.Params{Scenario: sc, Psi: c.Cfg.Psi}
}

// Time measures fn, returning the minimum of Cfg.Repeats runs in seconds.
// A run longer than Cfg.MaxSeconds stops further repetitions.
func (c *Context) Time(fn func()) float64 {
	best := -1.0
	for i := 0; i < c.Cfg.Repeats; i++ {
		start := time.Now()
		fn()
		sec := time.Since(start).Seconds()
		if best < 0 || sec < best {
			best = sec
		}
		if sec > c.Cfg.MaxSeconds {
			break
		}
	}
	return best
}

// extra holds process-local experiments contributed via RegisterExtra.
var extra []Experiment

// RegisterExtra appends an experiment to the registry for this process.
// cmd/tqbench uses it to contribute experiments that need the public
// trajcover API (the snapshot open comparison, mmaptier): internal/bench cannot
// import the root package itself, because the root package's in-package
// tests import internal/bench and would close an import cycle.
func RegisterExtra(e Experiment) { extra = append(extra, e) }

// Run executes the experiments with the given IDs ("all" runs the full
// registry), prints each table to w, and returns the tables so callers
// can post-process them (e.g. the -json trajectory output of cmd/tqbench).
func Run(ids []string, cfg Config, w io.Writer) ([]*Table, error) {
	ctx := NewContext(cfg)
	reg := Registry()
	byID := map[string]Experiment{}
	for _, e := range reg {
		byID[e.ID] = e
	}
	var run []Experiment
	if len(ids) == 1 && ids[0] == "all" {
		run = reg
	} else {
		for _, id := range ids {
			e, ok := byID[id]
			if !ok {
				known := make([]string, 0, len(byID))
				for k := range byID {
					known = append(known, k)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
			}
			run = append(run, e)
		}
	}
	fmt.Fprintf(w, "# trajcover experiment run: scale=%.3f psi=%.0fm repeats=%d seed=%d\n\n",
		ctx.Cfg.Scale, ctx.Cfg.Psi, ctx.Cfg.Repeats, ctx.Cfg.Seed)
	tables := make([]*Table, 0, len(run))
	for _, e := range run {
		table, err := e.Run(ctx)
		if err != nil {
			return tables, fmt.Errorf("bench: experiment %s: %w", e.ID, err)
		}
		table.Print(w)
		tables = append(tables, table)
	}
	return tables, nil
}
