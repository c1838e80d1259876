package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/core/arch"
	"passcloud/internal/workload"
)

// This file is passbench's scale-out mode (-load): the sustained-load
// harness run for every architecture at every requested shard count, so
// the trajectory artifact carries throughput/scaling numbers benchdiff
// can gate exactly like it gates cloud-op counts.

// loadRunJSON is one (architecture, shard count) cell of the load matrix:
// deterministic fields only (events, ops, modeled throughput), which
// benchdiff gates.
type loadRunJSON struct {
	Arch         string  `json:"arch"`
	Shards       int     `json:"shards"`
	Events       int64   `json:"events"`
	FlushBatches int64   `json:"flush_batches"`
	WriteOps     int64   `json:"write_ops"`
	PerShardOps  []int64 `json:"per_shard_ops"`
	BytesIn      int64   `json:"bytes_in"`
	ModeledMS    float64 `json:"modeled_write_ms"`
	Throughput   float64 `json:"throughput_eps"`
	// Speedup is ThroughputEPS relative to the same architecture's
	// 1-shard run of this report.
	Speedup float64 `json:"speedup,omitempty"`
	// Amplification is WriteOps relative to the 1-shard run (1.0 = the
	// per-shard op counts sum exactly to the unsharded baseline).
	Amplification float64 `json:"amplification,omitempty"`
	Queries       int64   `json:"queries"`
	QueryResults  int64   `json:"query_results"`
}

// loadReportJSON is the report's "load" section.
type loadReportJSON struct {
	Tenants     int           `json:"tenants"`
	Writers     int           `json:"writers"`
	Queriers    int           `json:"queriers"`
	Batches     int           `json:"batches"`
	Seed        int64         `json:"seed"`
	ShardCounts []int         `json:"shard_counts"`
	Runs        []loadRunJSON `json:"runs"`
}

// parseShardCounts parses the -load-shards flag ("1,4,16").
func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// runLoadMatrix executes the sustained-load harness for every
// architecture × shard count and fills the report section.
func runLoadMatrix(ctx context.Context, cfg workload.LoadConfig, shardCounts []int) (*loadReportJSON, error) {
	rep := &loadReportJSON{
		Tenants: cfg.Tenants, Writers: cfg.Writers, Queriers: cfg.Queriers,
		Batches: cfg.Batches, Seed: cfg.Seed, ShardCounts: shardCounts,
	}
	base := make(map[string]*loadRunJSON)
	for _, name := range arch.Names {
		for _, shards := range shardCounts {
			fmt.Fprintf(os.Stderr, "passbench: load %s x%d shards (%d tenants x %d writers x %d batches)...\n",
				name, shards, cfg.Tenants, cfg.Writers, cfg.Batches)
			multi := cloud.NewMulti(cloud.Config{Seed: cfg.Seed})
			res, err := workload.RunLoad(ctx, cfg, func(tenant int) (*arch.Sharded, error) {
				return workload.BuildCell(multi, fmt.Sprintf("t%d/", tenant), shards, arch.Config{Name: name})
			})
			if err != nil {
				return nil, fmt.Errorf("load %s x%d: %w", name, shards, err)
			}
			run := loadRunJSON{
				Arch: name, Shards: shards,
				Events: res.Events, FlushBatches: res.FlushBatches,
				WriteOps: res.WriteOps, PerShardOps: res.PerShardOps, BytesIn: res.BytesIn,
				ModeledMS:  float64(res.ModeledWrite) / float64(time.Millisecond),
				Throughput: res.ThroughputEPS,
				Queries:    res.Queries, QueryResults: res.QueryResults,
			}
			if shards == 1 {
				base[name] = &run
			}
			if b := base[name]; b != nil && shards > 1 && b.Throughput > 0 && b.WriteOps > 0 {
				run.Speedup = run.Throughput / b.Throughput
				run.Amplification = float64(run.WriteOps) / float64(b.WriteOps)
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	return rep, nil
}

// text renders the matrix for terminal use — the same numbers the
// README's capacity-planning table is generated from.
func (rep *loadReportJSON) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sustained load: %d tenants x %d writers x %d batches, %d queriers/tenant, seed %d (latency model WAN2009)\n",
		rep.Tenants, rep.Writers, rep.Batches, rep.Queriers, rep.Seed)
	fmt.Fprintf(&b, "%-12s %7s %8s %10s %12s %10s %9s %7s\n",
		"arch", "shards", "events", "write-ops", "modeled", "ev/s", "speedup", "amp")
	for _, r := range rep.Runs {
		speedup, amp := "-", "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
			amp = fmt.Sprintf("%.3f", r.Amplification)
		}
		fmt.Fprintf(&b, "%-12s %7d %8d %10d %11.0fms %10.0f %9s %7s\n",
			r.Arch, r.Shards, r.Events, r.WriteOps, r.ModeledMS, r.Throughput, speedup, amp)
	}
	return b.String()
}
