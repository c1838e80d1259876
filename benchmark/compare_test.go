package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"passcloud/benchmark/e2e"
)

func TestVerdict(t *testing.T) {
	lower := e2e.EndToEndMetric{Name: "latency", Unit: "ms", Bound: 0.10}
	higher := e2e.EndToEndMetric{Name: "rate", Unit: "1/s", HigherWins: true, Bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	wide := func(center float64) []float64 {
		return []float64{center * 0.7, center * 0.9, center, center * 1.1, center * 1.3}
	}
	for _, tc := range []struct {
		name string
		m    e2e.EndToEndMetric
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(103), "within"},
		{"slower", lower, tight(100), tight(125), "worse"},
		{"faster", lower, tight(100), tight(80), "better"},
		{"rate down", higher, tight(100), tight(80), "worse"},
		{"rate up", higher, tight(100), tight(125), "better"},
		{"noisy and overlapping", lower, wide(100), wide(120), "unresolved"},
		{"noisy but separated", lower, wide(100), wide(300), "worse"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeSet writes one record per value of close_p50_us, every other metric
// held at 1.
func writeSet(t *testing.T, values []float64) string {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range values {
		rec := record{Correct: true, Attempted: 1, Metrics: map[string]e2e.Metric{}, Run: &runInfo{Workload: "ingest-sdb", Seed: uint64(i), Scale: 1}}
		for _, m := range e2e.EndToEndMetrics {
			rec.Metrics[m.Name] = e2e.Metric{Value: 1, Unit: m.Unit}
		}
		rec.Metrics["close_p50_us"] = e2e.Metric{Value: v, Unit: "us"}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), "set.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitCode(t *testing.T) {
	base := writeSet(t, []float64{100, 101, 99, 100, 102})
	same := writeSet(t, []float64{101, 100, 102, 99, 100})
	slow := writeSet(t, []float64{130, 131, 129, 132, 130})

	var out bytes.Buffer
	if code := compareMain([]string{base, same}, &out); code != 0 {
		t.Errorf("agreeing sets exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("agreeing sets reported a difference:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out); code != 1 {
		t.Errorf("regressed set exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("regression not reported:\n%s", out.String())
	}
}
