package sweep

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"passcloud/internal/sim"
)

// seeds returns the seed matrix: the fixed CI set, overridable via
// SWEEP_SEEDS ("3,17,42") so a failure logged from any environment is
// replayable verbatim.
func seeds(t *testing.T) []int64 {
	if env := os.Getenv("SWEEP_SEEDS"); env != "" {
		var out []int64
		for _, part := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("SWEEP_SEEDS: %v", err)
			}
			out = append(out, n)
		}
		return out
	}
	return []int64{1, 2, 7, 2009}
}

// TestFaultSweepRecovery is the randomized crash-recovery property check:
// for every architecture, seed and fault-class mix, the workload must
// converge with zero invariant violations. On failure the log line carries
// the seed and the full fault schedule — rerun with SWEEP_SEEDS=<seed>.
func TestFaultSweepRecovery(t *testing.T) {
	ctx := context.Background()
	mixes := []struct {
		name    string
		classes []sim.FaultClass
	}{
		{"transient", []sim.FaultClass{sim.ClassTransient}},
		{"permanent", []sim.FaultClass{sim.ClassPermanent}},
		{"ackloss", []sim.FaultClass{sim.ClassAckLoss}},
		{"crash", []sim.FaultClass{sim.ClassCrash}},
		{"corrupt", []sim.FaultClass{sim.ClassCorrupt}},
		{"all", AllClasses},
		{"all+corrupt", ClassesWithCorruption},
	}
	for _, arch := range Arches {
		for _, mix := range mixes {
			for _, seed := range seeds(t) {
				t.Run(fmt.Sprintf("%s/%s/seed%d", arch, mix.name, seed), func(t *testing.T) {
					res, err := Run(ctx, Config{Arch: arch, Seed: seed, Classes: mix.classes})
					if err != nil {
						t.Fatalf("sweep run failed: %v", err)
					}
					if len(res.Violations) > 0 {
						t.Errorf("seed %d: %d invariant violations:\n  %s\nschedule:\n  %s\nflush errors:\n  %s",
							seed, len(res.Violations),
							strings.Join(res.Violations, "\n  "),
							strings.Join(res.Schedule, "\n  "),
							strings.Join(res.FlushErrors, "\n  "))
					}
				})
			}
		}
	}
}

// TestFaultSweepCorruptionDetection is the tamper-evidence property check:
// with post-commit corruption armed, the converged run must first verify
// completely clean (zero false positives), then — after the harness
// tampers through raw cloud access — verification must flag every
// corrupted shard, for every architecture at 1 and 4 shards.
func TestFaultSweepCorruptionDetection(t *testing.T) {
	ctx := context.Background()
	for _, arch := range Arches {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 7} {
				t.Run(fmt.Sprintf("%s/shards%d/seed%d", arch, shards, seed), func(t *testing.T) {
					cfg := Config{Arch: arch, Seed: seed, Shards: shards,
						Classes: []sim.FaultClass{sim.ClassCorrupt}, Faults: 3}
					if shards > 1 {
						// Corruption during the migration's copy: the moved
						// record set deleted from the destination must be
						// detected before the ring flips.
						cfg.Migrate, cfg.MigrateTamper = true, true
					}
					res, err := Run(ctx, cfg)
					if err != nil {
						t.Fatalf("sweep run failed: %v", err)
					}
					if shards > 1 && !strings.Contains(res.Migration, "epoch=0") {
						t.Errorf("tampered migration did not end fully-unmoved: %s", res.Migration)
					}
					if len(res.Violations) > 0 {
						t.Errorf("seed %d: %d violations:\n  %s\ncorruptions:\n  %s",
							seed, len(res.Violations),
							strings.Join(res.Violations, "\n  "),
							strings.Join(res.Corruptions, "\n  "))
					}
					if !res.VerifyClean {
						t.Error("healthy converged run did not verify clean (false positive)")
					}
					applied := 0
					for _, c := range res.Corruptions {
						if !strings.Contains(c, "skipped") {
							applied++
						}
					}
					if applied == 0 {
						t.Fatalf("no corruption was applied; detection was never exercised: %v", res.Corruptions)
					}
					if !res.DetectedAll {
						t.Errorf("injected corruption went undetected:\n  %s", strings.Join(res.Corruptions, "\n  "))
					}
					if res.PostDivergences == 0 {
						t.Error("post-corruption verification reported zero divergences")
					}
				})
			}
		}
	}
}

// TestFaultSweepMigrationRecovery is the migration fault class: after
// the workload converges, a resharding split runs with a seed-drawn
// controller crash point armed (before-import, after-import, before-flip
// or after-flip). Recovery must converge the store to fully-moved or
// fully-unmoved — never both — and every recovery invariant and the
// clean-verification contract must hold over the result.
func TestFaultSweepMigrationRecovery(t *testing.T) {
	ctx := context.Background()
	for _, arch := range Arches {
		for _, seed := range seeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", arch, seed), func(t *testing.T) {
				res, err := Run(ctx, Config{Arch: arch, Seed: seed, Shards: 4, Migrate: true})
				if err != nil {
					t.Fatalf("sweep run failed: %v", err)
				}
				if res.Migration == "" {
					t.Fatal("migration fault phase never ran")
				}
				if len(res.Violations) > 0 {
					t.Errorf("seed %d (%s): %d violations:\n  %s\nschedule:\n  %s",
						seed, res.Migration, len(res.Violations),
						strings.Join(res.Violations, "\n  "),
						strings.Join(res.Schedule, "\n  "))
				}
				if !res.VerifyClean {
					t.Errorf("post-migration state did not verify clean (%s)", res.Migration)
				}
				t.Logf("migration: %s", res.Migration)
			})
		}
	}
}

// TestFaultSweepShardedRecovery runs the full mix — recovery faults plus
// corruption — through the consistent-hash router: every invariant and
// the detection contract must hold shard by shard.
func TestFaultSweepShardedRecovery(t *testing.T) {
	ctx := context.Background()
	for _, arch := range Arches {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", arch, seed), func(t *testing.T) {
				res, err := Run(ctx, Config{Arch: arch, Seed: seed, Shards: 4, Classes: ClassesWithCorruption})
				if err != nil {
					t.Fatalf("sweep run failed: %v", err)
				}
				if len(res.Violations) > 0 {
					t.Errorf("seed %d: %d violations:\n  %s\nschedule:\n  %s",
						seed, len(res.Violations),
						strings.Join(res.Violations, "\n  "),
						strings.Join(res.Schedule, "\n  "))
				}
			})
		}
	}
}

// TestFaultSweepDeterministicReplay proves the replay contract CI failures
// depend on: the same seed yields the identical fault schedule, identical
// workload-visible errors, and a bit-identical final state digest.
func TestFaultSweepDeterministicReplay(t *testing.T) {
	ctx := context.Background()
	for _, arch := range Arches {
		t.Run(arch, func(t *testing.T) {
			const seed = 31337
			a, err := Run(ctx, Config{Arch: arch, Seed: seed})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(ctx, Config{Arch: arch, Seed: seed})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if got, want := strings.Join(a.Schedule, ";"), strings.Join(b.Schedule, ";"); got != want {
				t.Errorf("fault schedules diverged:\n%s\nvs\n%s", got, want)
			}
			if got, want := strings.Join(a.FlushErrors, ";"), strings.Join(b.FlushErrors, ";"); got != want {
				t.Errorf("flush errors diverged:\n%s\nvs\n%s", got, want)
			}
			if a.Digest != b.Digest {
				t.Errorf("final state digests diverged: %s vs %s", a.Digest, b.Digest)
			}
			// And a different seed must actually change the schedule —
			// otherwise the sweep is not exploring anything.
			c, err := Run(ctx, Config{Arch: arch, Seed: seed + 1})
			if err != nil {
				t.Fatalf("third run: %v", err)
			}
			if strings.Join(a.Schedule, ";") == strings.Join(c.Schedule, ";") {
				t.Errorf("seed %d and %d drew the same fault schedule", seed, seed+1)
			}
		})
	}
}

// TestFaultSweepRetryOverheadMetered asserts the sweep's retries are
// visible to the metering the cost harness reports: a transient-only run
// that recovered must show recovered attempts.
func TestFaultSweepRetryOverheadMetered(t *testing.T) {
	ctx := context.Background()
	res, err := Run(ctx, Config{Arch: "s3+sdb", Seed: 5, Faults: 8,
		Classes: []sim.FaultClass{sim.ClassTransient}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Retry.Total.Retries == 0 {
		t.Error("transient fault sweep finished with zero metered retries; retry wiring is not covering the write path")
	}
}

// TestStoreSyncOutlastsPermanentWindows: the store's own sync in recovery
// retries as the workload's Sync does, with the region settled between
// attempts. One permanent-fault window spans up to two checks and windows
// stack, so on S3-only at 4 shards these seeds still had one open when a
// second store sync gave up, and reported a store that was never broken.
func TestStoreSyncOutlastsPermanentWindows(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{15, 29, 79, 97, 119} {
		res, err := Run(ctx, Config{Arch: "s3", Seed: seed, Shards: 4, Classes: []sim.FaultClass{sim.ClassPermanent}})
		if err != nil {
			t.Fatalf("seed %d: sweep run failed: %v", seed, err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("seed %d: %d violations:\n  %s\nschedule:\n  %s",
				seed, len(res.Violations), strings.Join(res.Violations, "\n  "), strings.Join(res.Schedule, "\n  "))
		}
	}
}
