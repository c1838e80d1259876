package workload

import (
	"context"
	"fmt"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core/arch"
)

// runLoadAt runs the standard load config for one (arch, shards) cell.
func runLoadAt(t *testing.T, name string, shards int, cfg LoadConfig) *LoadResult {
	t.Helper()
	multi := cloud.NewMulti(cloud.Config{Seed: cfg.Seed})
	res, err := RunLoad(context.Background(), cfg, func(tenant int) (*arch.Sharded, error) {
		return BuildCell(multi, fmt.Sprintf("t%d/", tenant), shards, arch.Config{Name: name})
	})
	if err != nil {
		t.Fatalf("%s x%d: %v", name, shards, err)
	}
	return res
}

var loadTestCfg = LoadConfig{Tenants: 2, Writers: 2, Queriers: 1, Batches: 40, Seed: 2009}

// TestLoadDeterministicWriteMetrics: the gated metrics — events, total
// and per-shard op counts, modeled throughput — must be reproducible
// across runs regardless of goroutine interleaving: exactly for the
// first two architectures, within 0.2% for the WAL architecture (the
// commit daemon's receive count depends on queue interleaving).
func TestLoadDeterministicWriteMetrics(t *testing.T) {
	for _, name := range arch.Names {
		t.Run(name, func(t *testing.T) {
			a := runLoadAt(t, name, 4, loadTestCfg)
			b := runLoadAt(t, name, 4, loadTestCfg)
			close := func(x, y int64) bool {
				if name == "s3+sdb+sqs" {
					// The WAL drain's receive count shifts by a few ops
					// with queue interleaving (tx assembly across receive
					// pages); everything else is exact.
					d := x - y
					if d < 0 {
						d = -d
					}
					return d <= 6 || float64(d) <= 0.005*float64(x)
				}
				return x == y
			}
			if a.Events != b.Events || !close(a.WriteOps, b.WriteOps) {
				t.Fatalf("nondeterministic write metrics:\nrun A: events=%d ops=%d modeled=%v\nrun B: events=%d ops=%d modeled=%v",
					a.Events, a.WriteOps, a.ModeledWrite, b.Events, b.WriteOps, b.ModeledWrite)
			}
			for i := range a.PerShardOps {
				if !close(a.PerShardOps[i], b.PerShardOps[i]) {
					t.Fatalf("nondeterministic per-shard ops: %v vs %v", a.PerShardOps, b.PerShardOps)
				}
			}
			if a.Queries == 0 || a.Queries != b.Queries || a.QueryResults != b.QueryResults {
				t.Fatalf("query phase not deterministic: %d/%d vs %d/%d", a.Queries, a.QueryResults, b.Queries, b.QueryResults)
			}
		})
	}
}

// TestLoadShardScaling is the scale-out acceptance gate: at 4 shards the
// modeled aggregate write throughput must be at least 3x the 1-shard
// run's, with per-shard op counts summing to (nearly) the unsharded
// baseline — no hidden amplification. All three architectures are
// measured; the paper's first two must clear the bar.
func TestLoadShardScaling(t *testing.T) {
	for _, name := range arch.Names {
		t.Run(name, func(t *testing.T) {
			flat := runLoadAt(t, name, 1, loadTestCfg)
			sharded := runLoadAt(t, name, 4, loadTestCfg)

			if flat.Events != sharded.Events {
				t.Fatalf("event counts diverge: %d unsharded vs %d sharded", flat.Events, sharded.Events)
			}
			var sum int64
			for _, ops := range sharded.PerShardOps {
				sum += ops
			}
			if sum != sharded.WriteOps {
				t.Fatalf("per-shard ops %v do not sum to the total %d", sharded.PerShardOps, sharded.WriteOps)
			}
			amplification := float64(sharded.WriteOps) / float64(flat.WriteOps)
			if amplification > 1.03 {
				t.Errorf("sharding amplified cloud ops by %.1f%% (%d -> %d)",
					100*(amplification-1), flat.WriteOps, sharded.WriteOps)
			}
			speedup := sharded.ThroughputEPS / flat.ThroughputEPS
			t.Logf("%s: 1-shard %.0f ev/s, 4-shard %.0f ev/s (%.2fx, amplification %.3f)",
				name, flat.ThroughputEPS, sharded.ThroughputEPS, speedup, amplification)
			// The acceptance bar is >= 3x for at least the first two
			// architectures; the WAL design carries per-sub-batch
			// begin/commit overhead, so it gets headroom (today it clears
			// 3.4x anyway).
			bar := 3.0
			if name == "s3+sdb+sqs" {
				bar = 2.5
			}
			if speedup < bar {
				t.Errorf("4-shard throughput only %.2fx the unsharded baseline, want >= %.1fx", speedup, bar)
			}
		})
	}
}

// TestLoadHotShardSkew: with 90% of traffic on shard 0 the harness must
// still complete and the hot shard must actually be hot.
func TestLoadHotShardSkew(t *testing.T) {
	cfg := loadTestCfg
	cfg.HotShardFraction = 0.9
	res := runLoadAt(t, "s3+sdb", 4, cfg)
	var sum int64
	for _, ops := range res.PerShardOps {
		sum += ops
	}
	hotShare := float64(res.PerShardOps[0]) / float64(sum)
	if hotShare < 0.6 {
		t.Fatalf("hot shard carries only %.0f%% of ops; skew routing is not working (%v)", 100*hotShare, res.PerShardOps)
	}
	if res.Events == 0 || res.Queries == 0 {
		t.Fatalf("skewed run did no work: %+v", res)
	}
}

// TestLoadHotShardTargetAndShift: the skew generator must heat an
// arbitrary shard, and a mid-run shift must move the hotspot — the
// moving hot arc the resharding controller chases.
func TestLoadHotShardTargetAndShift(t *testing.T) {
	cfg := loadTestCfg
	cfg.HotShardFraction = 0.9
	cfg.HotShard = 2
	res := runLoadAt(t, "s3+sdb", 4, cfg)
	var sum int64
	for _, ops := range res.PerShardOps {
		sum += ops
	}
	if share := float64(res.PerShardOps[2]) / float64(sum); share < 0.6 {
		t.Fatalf("shard 2 carries only %.0f%% of ops; targeted skew is not working (%v)", 100*share, res.PerShardOps)
	}

	shift := loadTestCfg
	shift.HotShardFraction = 0.9
	shift.HotShard = 1
	shift.HotShardShiftAt = shift.Batches / 2
	shift.HotShardShiftTo = 3
	res = runLoadAt(t, "s3+sdb", 4, shift)
	sum = 0
	for _, ops := range res.PerShardOps {
		sum += ops
	}
	s1 := float64(res.PerShardOps[1]) / float64(sum)
	s3 := float64(res.PerShardOps[3]) / float64(sum)
	if s1 < 0.25 || s3 < 0.25 {
		t.Fatalf("shifted hotspot did not land on both halves: shares %v", res.PerShardOps)
	}
	if s1+s3 < 0.6 {
		t.Fatalf("shifted hotspot leaked off the targeted shards: shares %v", res.PerShardOps)
	}
}
