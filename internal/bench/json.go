package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// Row is one (experiment, method, x-tick) measurement in machine-readable
// form — the unit CI and perf-trajectory tooling consume.
type Row struct {
	Experiment string  `json:"experiment"`
	Title      string  `json:"title"`
	XLabel     string  `json:"x_label"`
	YLabel     string  `json:"y_label"`
	X          string  `json:"x"`
	Method     string  `json:"method"`
	Y          float64 `json:"y"`
}

// Rows flattens the table into one Row per (method, x-tick) pair.
func (t *Table) Rows() []Row {
	var rows []Row
	for _, s := range t.Series {
		for i, y := range s.Y {
			x := ""
			if i < len(t.XTicks) {
				x = t.XTicks[i]
			}
			rows = append(rows, Row{
				Experiment: t.ID,
				Title:      t.Title,
				XLabel:     t.XLabel,
				YLabel:     t.YLabel,
				X:          x,
				Method:     s.Method,
				Y:          y,
			})
		}
	}
	return rows
}

// RunDoc is the top-level JSON document WriteJSON emits: the run
// configuration plus every measurement row.
type RunDoc struct {
	Config Config `json:"config"`
	Rows   []Row  `json:"rows"`
}

// WriteJSON writes the tables as an indented RunDoc. The config is
// normalized with defaults and stamped with the host's core count, so the
// document records the effective run parameters.
func WriteJSON(w io.Writer, cfg Config, tables []*Table) error {
	doc := RunDoc{Config: cfg.withDefaults()}
	doc.Config.NProc = runtime.NumCPU()
	for _, t := range tables {
		doc.Rows = append(doc.Rows, t.Rows()...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
