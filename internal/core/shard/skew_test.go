package shard_test

import (
	"context"
	"fmt"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// TestHotShardSkew routes ~90% of a workload onto one shard while that
// shard's cloud injects transient faults through a deliberately tight
// retry budget — so sub-batches fail partially and the flush layer's
// recovery machinery runs for real. The PR 4 sweep invariants must hold
// afterwards: no data readable without provenance, no orphaned
// provenance, no double-applied records, and the (cached) sharded query
// results agree with a fresh uncached scan of the same namespaces.
func TestHotShardSkew(t *testing.T) {
	ctx := context.Background()
	const shards = 4

	faults := sim.NewFaultPlan()
	// Transient storms on the hot shard's services, spaced so several
	// batches hit a failing window. The tight retry budget (2 attempts, no
	// wait) turns storms into partial-write errors instead of silently
	// absorbed retries.
	for skip := 2; skip < 60; skip += 9 {
		faults.ArmOp("sdb/BatchPutAttributes", sim.ClassTransient, skip, 3)
	}
	for skip := 4; skip < 80; skip += 11 {
		faults.ArmOp("s3/PUT", sim.ClassTransient, skip, 3)
	}
	tight := retry.Policy{MaxAttempts: 2}

	multi := cloud.NewMulti(cloud.Config{Seed: 23})
	hotCloud := cloud.New(cloud.Config{Seed: 24, Faults: faults})
	clouds := make([]*cloud.Cloud, shards)
	stores := make([]shard.Store, shards)
	concrete := make([]*s3sdb.Store, shards)
	for i := 0; i < shards; i++ {
		cl := multi.Namespace(fmt.Sprintf("s%d", i))
		cfg := s3sdb.Config{Cloud: cl}
		if i == 0 {
			cl = hotCloud
			cfg = s3sdb.Config{Cloud: cl, Retry: tight}
		}
		st, err := s3sdb.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clouds[i] = cl
		stores[i] = st
		concrete[i] = st
	}
	r, err := shard.New(shard.Config{Shards: stores})
	if err != nil {
		t.Fatal(err)
	}

	// 90% of traffic on shard 0: pick file names by probing placement.
	nameOn := func(hot bool) func() prov.ObjectID {
		n := 0
		return func() prov.ObjectID {
			for {
				obj := prov.ObjectID(fmt.Sprintf("/skew/%v/f%d", hot, n))
				n++
				if (r.ShardFor(obj) == 0) == hot {
					return obj
				}
			}
		}
	}
	hotName, coldName := nameOn(true), nameOn(false)

	sys := pass.NewSystem(pass.Config{Kernel: "2.6.23", Flush: core.Flusher(r)})
	want := make(map[prov.ObjectID]string)
	var flushErrs int
	for b := 0; b < 40; b++ {
		p := sys.Exec(nil, pass.ExecSpec{Name: fmt.Sprintf("gen%d", b), Argv: []string{"gen"}})
		var obj prov.ObjectID
		if b%10 == 9 {
			obj = coldName()
		} else {
			obj = hotName()
		}
		content := fmt.Sprintf("payload-%d", b)
		if err := sys.Write(p, string(obj), []byte(content), pass.Truncate); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(ctx, p, string(obj)); err != nil {
			flushErrs++ // partial batch: recovery retries the remainder later
		}
		want[obj] = content
		sys.Exit(p)
	}
	// Drive recovery to quiescence: each Sync retries only what has not
	// durably landed. The fault windows are finite, so this converges.
	synced := false
	for i := 0; i < 30; i++ {
		if err := sys.Sync(ctx); err == nil {
			synced = true
			break
		}
	}
	if !synced {
		t.Fatal("recovery never reached quiescence")
	}
	if flushErrs == 0 {
		t.Fatal("fault schedule never fired — the test exercised nothing")
	}

	// Invariant: every file is readable with provenance describing the
	// latest content (no data-without-provenance, no regressed versions).
	for obj, content := range want {
		got, err := r.Get(ctx, obj)
		if err != nil {
			t.Fatalf("Get(%s): %v", obj, err)
		}
		if string(got.Data) != content {
			t.Errorf("%s: data %q, want %q", obj, got.Data, content)
		}
		if len(got.Records) == 0 {
			t.Errorf("%s: data readable without provenance", obj)
		}
	}

	// Invariant: no orphaned provenance survives recovery on any shard.
	for i, st := range concrete {
		orphans, err := st.OrphanScan(ctx)
		if err != nil {
			t.Fatalf("shard %d orphan scan: %v", i, err)
		}
		if len(orphans) != 0 {
			t.Errorf("shard %d: %d orphans survive recovery: %v", i, len(orphans), orphans)
		}
	}

	// Invariant: the sharded (cached) query results equal a fresh uncached
	// scan of the same namespaces, and no record was double-applied.
	fresh := make([]shard.Store, shards)
	for i := range clouds {
		st, err := s3sdb.New(s3sdb.Config{Cloud: clouds[i], DisableQueryCache: true})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = st
	}
	freshR, err := shard.New(shard.Config{Shards: fresh})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []prov.Query{prov.Q1(), {Type: prov.TypeFile, Projection: prov.ProjectRefs}} {
		cached := canonical(t, ctx, r, q)
		scanned := canonical(t, ctx, freshR, q)
		if cached != scanned {
			t.Errorf("cached sharded result diverges from uncached scan for %s:\ncached:\n%s\nscan:\n%s", q.Key(), cached, scanned)
		}
	}
	g, err := core.ProvenanceGraph(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, subject := range g.Subjects() {
		seen := make(map[string]int)
		for _, rec := range g.Records(subject) {
			seen[rec.Attr+"\x00"+rec.Value.String()]++
		}
		for k, n := range seen {
			if n > 1 {
				t.Errorf("%s: record %q applied %d times", subject, k, n)
			}
		}
	}
}

// TestSkewConvergenceUnderCeiling is the controller's convergence
// invariant: after one reconciliation pass over a 90%-hot workload, the
// hot shard's op share of fresh traffic — generated against the FROZEN
// pre-migration placement, so it is the same traffic pattern that made
// the shard hot — must fall below the configured ceiling, and repeated
// reconciliation passes must drive every shard under the ceiling.
func TestSkewConvergenceUnderCeiling(t *testing.T) {
	ctx := context.Background()
	const (
		shards  = 4
		hot     = 0
		ceiling = 0.5
	)
	tg := buildTarget(t, "s3+sdb", shards, 41, false)
	ctrl, err := reshard.New(reshard.Config{
		Router:     tg.router,
		Clouds:     tg.clouds,
		HotCeiling: ceiling,
		Drain: func(ctx context.Context) error {
			for _, d := range tg.drains {
				if err := d(ctx); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// runPhase drives 50 batches, 90% of them onto names the probe calls
	// hot, through a fresh PASS client.
	runPhase := func(tag string, hotName func(prov.ObjectID) bool) {
		t.Helper()
		sys := pass.NewSystem(pass.Config{Kernel: "2.6.23", Namespace: tag, Flush: core.Flusher(tg.store)})
		probe := 0
		nameOn := func(want bool) prov.ObjectID {
			for {
				obj := prov.ObjectID(fmt.Sprintf("/conv/%s/f%d", tag, probe))
				probe++
				if hotName(obj) == want {
					return obj
				}
			}
		}
		for b := 0; b < 50; b++ {
			p := sys.Exec(nil, pass.ExecSpec{Name: "gen", Argv: []string{"gen", tag}})
			obj := nameOn(b%10 != 9)
			if err := sys.Write(p, string(obj), []byte(fmt.Sprintf("%s-%d", tag, b)), pass.Truncate); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(ctx, p, string(obj)); err != nil {
				t.Fatal(err)
			}
			sys.Exit(p)
		}
		if err := sys.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		tg.drain(ctx, t)
	}

	// Phase 1: heat shard 0 against the live ring; the detector must see
	// it over the ceiling and one reconciliation pass must split it.
	ctrl.SampleBaseline()
	frozen := tg.router.Assignment()
	runPhase("p1", func(o prov.ObjectID) bool { return tg.router.ShardFor(o) == hot })
	if got, share, ok := ctrl.DetectHot(); !ok || got != hot {
		t.Fatalf("detector missed the hot shard: hot=%d share=%.2f ok=%v (shares %v)", got, share, ok, ctrl.Shares())
	}
	rep, err := ctrl.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "split" || rep.Plan == nil || rep.Plan.Src != hot {
		t.Fatalf("reconciliation did not split the hot shard: %+v", rep)
	}
	if tg.router.RingEpoch() != 1 || tg.router.Migrating() {
		t.Fatalf("cutover incomplete: epoch=%d migrating=%v", tg.router.RingEpoch(), tg.router.Migrating())
	}

	// Phase 2: the same traffic pattern, probed against the frozen
	// pre-migration ring, through the flipped ring. The original hot
	// shard must land under the ceiling after the single split.
	frozenProbe := func(o prov.ObjectID) bool { return tg.router.OwnerIn(frozen, o) == hot }
	ctrl.SampleBaseline()
	runPhase("p2", frozenProbe)
	shares := ctrl.Shares()
	if shares[hot] >= ceiling {
		t.Fatalf("post-split hot shard still carries %.0f%% of ops, want < %.0f%% (shares %v)",
			100*shares[hot], 100*ceiling, shares)
	}
	t.Logf("hot-shard share after split: %.1f%% (shares %v)", 100*shares[hot], shares)

	// Shedding half a 90% hotspot can make the destination the new
	// hottest shard; the reconciliation loop must converge — every shard
	// under the ceiling — within a few further passes, and the original
	// hot shard must never reheat.
	for round := 3; ; round++ {
		got, share, ok := ctrl.DetectHot()
		if !ok {
			break
		}
		if got == hot {
			t.Fatalf("original hot shard reheated to %.0f%%", 100*share)
		}
		if round > 6 {
			t.Fatalf("reconciliation loop did not converge: shard %d still at %.0f%%", got, 100*share)
		}
		if _, err := ctrl.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		ctrl.SampleBaseline()
		runPhase(fmt.Sprintf("p%d", round), frozenProbe)
	}
	final := ctrl.Shares()
	for i, s := range final {
		if s >= ceiling {
			t.Fatalf("shard %d ends at %.0f%%, want every shard < %.0f%% (shares %v)", i, 100*s, 100*ceiling, final)
		}
	}
	t.Logf("converged shares: %v (ring epoch %d)", final, tg.router.RingEpoch())
}
