package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// TimedTable is one experiment's result table with its wall-clock run time.
type TimedTable struct {
	Table  *Table
	Millis float64
}

// AllTimed runs the experiments named by ids (case-insensitive; all of
// them when ids is empty) at the given scale in index order, timing each.
// An ID that names no experiment is an error, reported before anything
// runs.
func AllTimed(scale int, ids ...string) ([]TimedTable, error) {
	pick := make([]bool, len(Registry))
	for _, id := range ids {
		i := slices.IndexFunc(Registry, func(x Experiment) bool { return strings.EqualFold(x.ID, id) })
		if i < 0 {
			return nil, fmt.Errorf("exp: unknown experiment %q", id)
		}
		pick[i] = true
	}
	var out []TimedTable
	for i, x := range Registry {
		if len(ids) > 0 && !pick[i] {
			continue
		}
		start := time.Now()
		t := x.Run(scale)
		out = append(out, TimedTable{Table: t, Millis: float64(time.Since(start).Microseconds()) / 1000})
	}
	return out, nil
}

// BenchResult is one experiment's entry in the machine-readable benchmark
// report tracked across PRs (BENCH_engine.json).
type BenchResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Millis  float64            `json:"ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// BenchReport is the machine-readable benchmark report.
type BenchReport struct {
	Scale       int           `json:"scale"`
	TotalMillis float64       `json:"total_ms"`
	Results     []BenchResult `json:"results"`
}

// Report converts timed tables into a benchmark report.
func Report(tts []TimedTable, scale int) *BenchReport {
	rep := &BenchReport{Scale: scale}
	for _, tt := range tts {
		r := BenchResult{ID: tt.Table.ID, Title: tt.Table.Title, Millis: tt.Millis, Metrics: tt.Table.Metrics}
		if tt.Table.Err != nil {
			r.Error = tt.Table.Err.Error()
		}
		rep.TotalMillis += tt.Millis
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// WriteBenchJSON writes the report for the timed tables to path as indented
// JSON (the BENCH_engine.json format future PRs diff against).
func WriteBenchJSON(path string, tts []TimedTable, scale int) error {
	data, err := json.MarshalIndent(Report(tts, scale), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
