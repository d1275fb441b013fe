package bench

import (
	"bytes"
	"strings"
	"testing"
)

func diffDoc(rows ...Row) RunDoc { return RunDoc{Rows: rows} }

func timeRow(exp, x, method string, y float64) Row {
	return Row{Experiment: exp, X: x, Method: method, YLabel: "seconds per query", Y: y}
}

func qpsRow(exp, x, method string, y float64) Row {
	return Row{Experiment: exp, X: x, Method: method, YLabel: "queries/sec", Y: y}
}

func infoRow(exp, x, method string, y float64) Row {
	return Row{Experiment: exp, X: x, Method: method, YLabel: "#users served", Y: y}
}

func TestDiffDocsGatesDirections(t *testing.T) {
	old := diffDoc(
		timeRow("fig7a", "1", "TQ(Z)", 1.0),
		timeRow("fig7a", "2", "TQ(Z)", 1.0),
		qpsRow("thrpt", "4", "ServiceValues", 100),
		qpsRow("thrpt", "8", "ServiceValues", 100),
		infoRow("fig10b", "1", "G-TQ(Z)", 500),
	)
	niu := diffDoc(
		timeRow("fig7a", "1", "TQ(Z)", 1.1),       // +10% slower: within threshold
		timeRow("fig7a", "2", "TQ(Z)", 1.5),       // +50% slower: regression
		qpsRow("thrpt", "4", "ServiceValues", 95), // -5%: fine
		qpsRow("thrpt", "8", "ServiceValues", 60), // -40% throughput: regression
		infoRow("fig10b", "1", "G-TQ(Z)", 100),    // informational: never gates
	)
	rows, regressions := DiffDocs(old, niu, 0.25)
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2", regressions)
	}
	byKey := map[string]DiffRow{}
	for _, d := range rows {
		byKey[d.Experiment+"/"+d.X+"/"+d.Method] = d
	}
	if !byKey["fig7a/2/TQ(Z)"].Regressed {
		t.Error("50% slowdown on a seconds series not flagged")
	}
	if byKey["fig7a/1/TQ(Z)"].Regressed {
		t.Error("10% slowdown flagged at a 25% threshold")
	}
	if !byKey["thrpt/8/ServiceValues"].Regressed {
		t.Error("40% throughput drop not flagged")
	}
	if byKey["thrpt/4/ServiceValues"].Regressed {
		t.Error("5% throughput drop flagged at a 25% threshold")
	}
	if d := byKey["fig10b/1/G-TQ(Z)"]; d.Regressed || d.Direction != Informational {
		t.Error("informational series participated in the gate")
	}
}

func TestDiffDocsMixedUnitSeries(t *testing.T) {
	mixed := func(y float64) Row {
		return Row{Experiment: "shards", X: "4", Method: "build(s)",
			YLabel: "queries/sec (build series: seconds)", Y: y}
	}
	// A build-time series in a throughput-labelled table: getting FASTER
	// (smaller seconds) must not be flagged, getting slower must.
	if _, reg := DiffDocs(diffDoc(mixed(2.0)), diffDoc(mixed(1.0)), 0.25); reg != 0 {
		t.Fatal("faster build(s) flagged as regression")
	}
	if _, reg := DiffDocs(diffDoc(mixed(1.0)), diffDoc(mixed(2.0)), 0.25); reg != 1 {
		t.Fatal("slower build(s) not flagged")
	}
}

func TestDiffDocsCountSeriesInformational(t *testing.T) {
	// An "(n)" count series inside a seconds-labelled table (a synthetic
	// swap counter; pbuild's BuildFrozen allocs(n) is a real one) is
	// printed but never gates, however much it moves.
	swaps := func(y float64) Row {
		return Row{Experiment: "churn", X: "0.50", Method: "swaps(n)",
			YLabel: "seconds per query (swaps(n): completed background swaps)", Y: y}
	}
	rows, reg := DiffDocs(diffDoc(swaps(1)), diffDoc(swaps(9)), 0.25)
	if reg != 0 {
		t.Fatal("swaps(n) count change gated")
	}
	if len(rows) != 1 || rows[0].Direction != Informational {
		t.Fatalf("swaps(n) direction = %+v, want Informational", rows)
	}
}

func TestDiffDocsHandlesMissingRows(t *testing.T) {
	old := diffDoc(timeRow("fig7a", "1", "TQ(Z)", 1.0), timeRow("gone", "1", "BL", 2.0))
	niu := diffDoc(timeRow("fig7a", "1", "TQ(Z)", 1.0), timeRow("fresh", "1", "TQ(Z)", 9.0))
	rows, regressions := DiffDocs(old, niu, 0.1)
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0 (one-sided rows never gate)", regressions)
	}
	var onlyOld, onlyNew int
	for _, d := range rows {
		if d.OnlyOld {
			onlyOld++
		}
		if d.OnlyNew {
			onlyNew++
		}
	}
	if onlyOld != 1 || onlyNew != 1 {
		t.Fatalf("onlyOld=%d onlyNew=%d, want 1 and 1", onlyOld, onlyNew)
	}
}

func TestDiffDocsSubMillisecondFloor(t *testing.T) {
	// A 3× slowdown on a 20µs operation (50k qps) is runner noise, not
	// signal: below the per-op floor the row must print but never gate.
	if _, reg := DiffDocs(diffDoc(qpsRow("thrpt", "1", "SV", 50000)), diffDoc(qpsRow("thrpt", "1", "SV", 15000)), 0.25); reg != 0 {
		t.Fatal("sub-millisecond throughput row gated")
	}
	if _, reg := DiffDocs(diffDoc(timeRow("fig7a", "1", "TQ(Z)", 0.0002)), diffDoc(timeRow("fig7a", "1", "TQ(Z)", 0.001)), 0.25); reg != 0 {
		t.Fatal("sub-millisecond timing row gated")
	}
	// At or above the floor the same relative change still gates.
	if _, reg := DiffDocs(diffDoc(timeRow("fig7a", "1", "TQ(Z)", 0.002)), diffDoc(timeRow("fig7a", "1", "TQ(Z)", 0.01)), 0.25); reg != 1 {
		t.Fatal("millisecond-scale timing regression not gated")
	}
}

func TestDiffDocsZeroBaseline(t *testing.T) {
	old := diffDoc(timeRow("fig7a", "1", "TQ(Z)", 0))
	niu := diffDoc(timeRow("fig7a", "1", "TQ(Z)", 5))
	if _, regressions := DiffDocs(old, niu, 0.1); regressions != 0 {
		t.Fatal("zero baseline must not gate (relative delta undefined)")
	}
}

func TestReadRunDocAndPrint(t *testing.T) {
	doc := RunDoc{Config: Config{Scale: 0.01}, Rows: []Row{timeRow("fig7a", "1", "TQ(Z)", 1.25)}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc.Config, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunDoc(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadRunDoc on WriteJSON output: %v", err)
	}
	if _, err := ReadRunDoc(strings.NewReader("{not json")); err == nil {
		t.Fatal("ReadRunDoc accepted malformed JSON")
	}
	rows, _ := DiffDocs(doc, doc, 0.2)
	var out bytes.Buffer
	PrintDiff(&out, rows, 0.2)
	if !strings.Contains(out.String(), "fig7a") {
		t.Fatalf("PrintDiff output missing experiment id:\n%s", out.String())
	}
}
