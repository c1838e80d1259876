package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"passcloud/benchmark/e2e"
	"passcloud/benchmark/traced"
)

// smokeScale shrinks every workload to a fraction of a second.
const smokeScale = 0.02

func metricNames(m map[string]e2e.Metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsUntracedAndTraced runs each workload both ways at a tiny
// size and holds the two stacks to each other: the hand-built, wrapped
// stack must answer every check, pick the same query strategies and — on
// the single-client workloads, where request counts repeat exactly — issue
// the same number of cloud requests as the public one.
func TestWorkloadsUntracedAndTraced(t *testing.T) {
	ctx := context.Background()
	var e2eNames, layerNames []string
	for _, m := range e2e.EndToEndMetrics {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range traced.LayerMetrics {
		layerNames = append(layerNames, m.Name)
	}
	sort.Strings(e2eNames)
	sort.Strings(layerNames)

	for _, spec := range e2e.Workloads {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := e2e.Config{Seed: 5, Scale: smokeScale, Setups: 1}
			plain, err := e2e.Run(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct() {
				t.Fatalf("untraced run: %d of %d operations and checks failed", plain.Failed, plain.Attempted)
			}
			if got := metricNames(plain.EndToEnd); !reflect.DeepEqual(got, e2eNames) {
				t.Errorf("untraced run reports %v, want %v", got, e2eNames)
			}
			for name, m := range plain.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics must never be 0", name, m.Value)
				}
			}

			res, spans, layers, err := traced.Run(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Fatalf("traced run: %d of %d operations and checks failed", res.Failed, res.Attempted)
			}
			if got := metricNames(layers); !reflect.DeepEqual(got, layerNames) {
				t.Errorf("traced run reports %v, want %v", got, layerNames)
			}
			if !reflect.DeepEqual(res.Strategies, plain.Strategies) {
				t.Errorf("wrapped stack plans %v, public stack %v", res.Strategies, plain.Strategies)
			}
			if spec.Clients == 1 {
				if res.IngestUsage != plain.IngestUsage {
					t.Errorf("ingest usage differs: wrapped %+v, public %+v", res.IngestUsage, plain.IngestUsage)
				}
				for _, name := range []string{"cloud_ops_per_close", "cloud_ops_per_cold_round"} {
					if a, b := res.EndToEnd[name].Value, plain.EndToEnd[name].Value; a != b {
						t.Errorf("%s: wrapped %v, public %v", name, a, b)
					}
				}
			}
			checkSpanTree(t, spans)

			wal := spec.Options.Architecture.String() == "S3+SimpleDB+SQS"
			if got := layers["wal.txns_per_runonce"].Value > 0; got != wal {
				t.Errorf("wal.txns_per_runonce non-zero = %v on %s", got, spec.Options.Architecture)
			}
			if got := layers["sim.sqs_ops"].Value > 0; got != wal {
				t.Errorf("sim.sqs_ops non-zero = %v on %s", got, spec.Options.Architecture)
			}
			if sharded := spec.Options.Shards > 1; (layers["reshard.moved_subjects"].Value > 0) != sharded {
				t.Errorf("reshard.moved_subjects = %v with %d shards", layers["reshard.moved_subjects"].Value, spec.Options.Shards)
			}
		})
	}
}

// checkSpanTree asserts the recording is a forest with one root per
// client operation and every child inside its parent.
func checkSpanTree(t *testing.T, spans []traced.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	roots := map[int]int{}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts (never closed?)", i, s.Name)
		}
		if s.Parent < 0 {
			if s.Op != s.ID {
				t.Errorf("root %d %s has op %d", i, s.Name, s.Op)
			}
			roots[s.Op]++
			continue
		}
		p := spans[s.Parent]
		if s.Op != p.Op {
			t.Errorf("span %d %s has op %d, its parent %s op %d", i, s.Name, s.Op, p.Name, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%v,%v] leaves its parent %s [%v,%v]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, s := range spans {
		if roots[s.Op] != 1 {
			t.Fatalf("op %d has %d roots", s.Op, roots[s.Op])
		}
	}
}

// TestCommandExitCodes drives the command line: a healthy run exits 0 and
// ends with the contract's JSON object; a run whose reference was
// deliberately broken reports failures and exits non-zero.
func TestCommandExitCodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	args := []string{"--workload", "query-s3x4", "--seed", "3", "--size", "0.02", "--trace", "0", "--out", out}
	if code := runMain(args); code != 0 {
		t.Fatalf("healthy run exited %d", code)
	}
	if code := runMain(append(args, "--break-reference")); code == 0 {
		t.Fatal("run with a corrupted reference exited 0")
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d records written, want 2", len(lines))
	}
	var healthy, broken record
	if err := json.Unmarshal(lines[0], &healthy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &broken); err != nil {
		t.Fatal(err)
	}
	if !healthy.Correct || healthy.Failed != 0 || healthy.Attempted < 1 {
		t.Errorf("healthy record: %+v", healthy)
	}
	if broken.Correct || broken.Failed == 0 {
		t.Errorf("broken record: correct=%v failed=%d", broken.Correct, broken.Failed)
	}
	if healthy.Run == nil || healthy.Run.Scale != 0.02 {
		t.Errorf("record does not carry its non-default size: %+v", healthy.Run)
	}
	// A result set taken at a non-default size is refused.
	if code := compareMain([]string{out, out}, &bytes.Buffer{}); code != 2 {
		t.Errorf("compare accepted runs at scale 0.02 (exit %d)", code)
	}
	if code := runMain([]string{"--workload", "no-such-workload"}); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver
// reads, equal to the tables the code reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds != nominalSeconds {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(e2e.Workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(e2e.Workloads))
	}
	for i, w := range e2e.Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(e2e.EndToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(spec.EndToEnd), len(e2e.EndToEndMetrics))
	}
	for i, m := range e2e.EndToEndMetrics {
		better := "lower"
		if m.HigherWins {
			better = "higher"
		}
		d := spec.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %+v", i, d, m)
		}
	}
	if len(spec.PerLayer) != len(traced.LayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(traced.LayerMetrics))
	}
	for i, m := range traced.LayerMetrics {
		if d := spec.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, d, m)
		}
	}
}
