package sweep

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/qcache"
	"passcloud/internal/sim"
)

// TestFaultSweepFiresEveryMenuEntry is the firing census. Arming a target
// proves nothing until the workload reaches it, so every crash point an
// architecture declares and every op on its menu must fire, at 1 and at 4
// shards; and no run may check a mutating op the menu cannot fault. Its
// seeds are fixed (SWEEP_SEEDS does not apply): the first four whose runs
// take the wide step. Each run arms, before its first step, every entry no
// earlier run fired (all at once, an early crash can preempt a later point
// for good: a transaction whose log the daemon deleted is never retried).
// Its invariants must hold as in any sweep run.
func TestFaultSweepFiresEveryMenuEntry(t *testing.T) {
	var seeds []int64
	for seed := int64(1); len(seeds) < 4; seed++ {
		if wideStep(seed) {
			seeds = append(seeds, seed)
		}
	}
	// faultOp names a metered op ("SimpleDB/PutAttributes") as the
	// simulated services check it ("sdb/PutAttributes").
	faultOp := strings.NewReplacer(billing.S3.String()+"/", "s3/", billing.SimpleDB.String()+"/", "sdb/").Replace
	for _, a := range Arches {
		points, ops := arch.CrashPoints[a], opMenus[a]
		for _, shards := range []int{1, 4} {
			unfired, offMenu := make(map[string]bool), make(map[string]bool)
			for _, p := range points {
				unfired[p.String()] = true
			}
			for _, op := range ops {
				unfired[op] = true
			}
			for _, seed := range seeds {
				if len(unfired) == 0 {
					break
				}
				faults := sim.NewFaultPlan()
				for _, p := range points {
					if unfired[p.String()] {
						faults.Arm(p)
					}
				}
				for _, op := range ops {
					if unfired[op] {
						faults.ArmOp(op, sim.ClassTransient, 0, 1)
					}
				}
				res, err := run(context.Background(), Config{Arch: a, Seed: seed, Shards: shards}, faults)
				if err != nil {
					t.Fatalf("%s seed %d: %v", a, seed, err)
				}
				if len(res.Violations) > 0 {
					t.Errorf("%s at %d shards, seed %d: invariant violations:\n  %s", a, shards, seed, strings.Join(res.Violations, "\n  "))
				}
				for _, p := range points {
					if faults.Fired(p) > 0 {
						delete(unfired, p.String())
					}
				}
				for _, op := range ops {
					if faults.OpFired(op) > 0 {
						delete(unfired, op)
					}
				}
				for _, metered := range qcache.MutatingOps {
					if op := faultOp(metered); faults.OpChecks(op) > 0 && !slices.Contains(ops, op) {
						offMenu[op] = true
					}
				}
			}
			if len(unfired) > 0 {
				t.Errorf("%s at %d shards: never fired over seeds %v: %v", a, shards, seeds, slices.Sorted(maps.Keys(unfired)))
			}
			if len(offMenu) > 0 {
				t.Errorf("%s at %d shards: runs check mutating ops its menu cannot fault: %v", a, shards, slices.Sorted(maps.Keys(offMenu)))
			}
		}
	}
}
