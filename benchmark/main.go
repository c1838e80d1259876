// Command benchmark measures the provenance-aware cloud store from
// outside: one workload per invocation, every metric printed by name with
// its unit, every answer checked. See README.md.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	benchmark compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"passcloud/benchmark/e2e"
	"passcloud/benchmark/traced"
)

// nominalSeconds is the run length the default workload sizes were tuned
// to on the 2-core reference sandbox; --seconds scales the sizes from it.
const nominalSeconds = 20

// setups is how many times an untraced run sets up; setup_s is their median.
const setups = 5

// record is one run's output: the contract's four keys, plus what
// identifies the run when records are collected into a result set.
type record struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]e2e.Metric `json:"metrics"`
	Run       *runInfo              `json:"run,omitempty"`
}

type runInfo struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Traced   bool    `json:"traced"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Commit   string  `json:"commit,omitempty"`
	// Calibration is the factor the run's times were multiplied by;
	// dividing a time by it recovers the clock's reading.
	Calibration float64 `json:"calibration"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: ingest-sdb, query-s3x4 or mixed-walx4")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal run length; scales the workload from its default size")
	tracing := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	size := fs.Float64("size", 0, "explicit workload scale (overrides --seconds; results are stamped and not comparable)")
	out := fs.String("out", "", "append the run's record to this JSON-lines file")
	commit := fs.String("commit", "", "commit id to stamp into the record")
	breakRef := fs.Bool("break-reference", false, "corrupt one reference result, to watch the correctness gate trip (tests)")
	fs.Parse(args)

	spec, err := e2e.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	scale := *seconds / nominalSeconds
	if *size > 0 {
		scale = *size
	}
	cfg := e2e.Config{Seed: *seed, Scale: scale, Setups: setups, BreakReference: *breakRef}

	ctx := context.Background()
	rec := record{Run: &runInfo{
		Workload: spec.Name, Seed: *seed, Scale: scale, Traced: *tracing == 1,
		NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: *commit,
	}}
	var res *e2e.Result
	if *tracing == 1 {
		res, _, rec.Metrics, err = traced.Run(ctx, spec, cfg)
	} else {
		res, err = e2e.Run(ctx, spec, cfg)
		if res != nil {
			rec.Metrics = res.EndToEnd
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct(), res.Attempted, res.Failed
	rec.Run.Calibration = res.Calibration

	// Human-readable table first, the machine-readable record as the last
	// line. A traced run's end-to-end readings are not shown: they were
	// taken with tracing on.
	if *tracing == 1 {
		printMetrics("per-layer", rec.Metrics)
	} else {
		printMetrics("end-to-end", res.EndToEnd)
		printMetrics("client (ungated)", res.Layer)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	rec.Run = nil
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func printMetrics(title string, metrics map[string]e2e.Metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("-- %s --\n", title)
	for _, name := range names {
		fmt.Printf("%-36s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
