package reshard_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

var arches = []string{"s3", "s3+sdb", "s3+sdb+sqs"}

// target is one sharded namespace under test.
type target struct {
	router *shard.Router
	clouds []*cloud.Cloud
	drains []func(context.Context) error
}

func (tg *target) drainAll(ctx context.Context) error {
	for _, d := range tg.drains {
		if err := d(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (tg *target) totalOps() int64 {
	var n int64
	for _, cl := range tg.clouds {
		n += cl.Usage().TotalOps()
	}
	return n
}

func (tg *target) auditors() []integrity.Auditor {
	out := make([]integrity.Auditor, tg.router.NumShards())
	for i := range out {
		out[i] = tg.router.Shard(i).(integrity.Auditor)
	}
	return out
}

func buildTarget(t *testing.T, arch string, n int, seed int64) *target {
	t.Helper()
	multi := cloud.NewMulti(cloud.Config{Seed: seed})
	tg := &target{}
	var stores []shard.Store
	for i := 0; i < n; i++ {
		cl := multi.Namespace(fmt.Sprintf("shard%d", i))
		tg.clouds = append(tg.clouds, cl)
		switch arch {
		case "s3":
			st, err := s3only.New(s3only.Config{Cloud: cl})
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, st)
		case "s3+sdb":
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, st)
		case "s3+sdb+sqs":
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: fmt.Sprintf("c%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			daemon := s3sdbsqs.NewCommitDaemon(st, nil)
			tg.drains = append(tg.drains, func(ctx context.Context) error {
				for j := 0; j < 50; j++ {
					k, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if k == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
				}
				return errors.New("commit daemon did not drain")
			})
			stores = append(stores, st)
		default:
			t.Fatalf("unknown arch %q", arch)
		}
	}
	r, err := shard.New(shard.Config{Shards: stores})
	if err != nil {
		t.Fatal(err)
	}
	tg.router = r
	return tg
}

// controller builds a reshard controller over tg.
func controller(t *testing.T, tg *target, faults *sim.FaultPlan, beforeVerify func(context.Context) error) *reshard.Controller {
	t.Helper()
	c, err := reshard.New(reshard.Config{
		Router:       tg.router,
		Clouds:       tg.clouds,
		Faults:       faults,
		Drain:        tg.drainAll,
		BeforeVerify: beforeVerify,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// workloadBatches captures a deterministic PASS event stream with enough
// objects to populate every shard of a 4-way ring.
func workloadBatches(t *testing.T) [][]pass.FlushEvent {
	t.Helper()
	ctx := context.Background()
	var batches [][]pass.FlushEvent
	sys := pass.NewSystem(pass.Config{Kernel: "2.6.23", Flush: func(_ context.Context, b []pass.FlushEvent) error {
		batches = append(batches, append([]pass.FlushEvent(nil), b...))
		return nil
	}})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		must(sys.Ingest(ctx, fmt.Sprintf("/data/in%d", i), []byte(fmt.Sprintf("dataset-%d", i))))
	}
	for i := 0; i < 4; i++ {
		p := sys.Exec(nil, pass.ExecSpec{Name: "blast", Argv: []string{"blast", fmt.Sprint(i)}})
		must(sys.Read(p, fmt.Sprintf("/data/in%d", i)))
		must(sys.Read(p, fmt.Sprintf("/data/in%d", (i+3)%10)))
		must(sys.Write(p, fmt.Sprintf("/out/blast%d", i), []byte(fmt.Sprintf("hits-%d", i)), pass.Truncate))
		must(sys.Close(ctx, p, fmt.Sprintf("/out/blast%d", i)))
		sys.Exit(p)
	}
	mean := sys.Exec(nil, pass.ExecSpec{Name: "softmean", Argv: []string{"softmean"}})
	for i := 0; i < 4; i++ {
		must(sys.Read(mean, fmt.Sprintf("/out/blast%d", i)))
	}
	must(sys.Write(mean, "/res/mean", []byte("m"), pass.Truncate))
	must(sys.Close(ctx, mean, "/res/mean"))
	sys.Exit(mean)
	must(sys.Sync(ctx))
	return batches
}

func replay(t *testing.T, ctx context.Context, tg *target, batches [][]pass.FlushEvent) {
	t.Helper()
	for _, b := range batches {
		if err := tg.router.PutBatch(ctx, b); err != nil {
			t.Fatalf("replay PutBatch: %v", err)
		}
	}
	if err := core.SyncStore(ctx, tg.router); err != nil {
		t.Fatalf("replay sync: %v", err)
	}
	if err := tg.drainAll(ctx); err != nil {
		t.Fatalf("replay drain: %v", err)
	}
}

func oracleQueries() []prov.Query {
	return []prov.Query{
		prov.Q1(),
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{Type: prov.TypeProcess, Projection: prov.ProjectFull},
		{RefPrefix: "/out/", Projection: prov.ProjectFull},
		{Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}, Projection: prov.ProjectFull},
		{RefPrefix: "/data/in1:", Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectRefs},
		{Refs: []prov.Ref{{Object: "/res/mean", Version: 1}}, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
	}
}

// canonical renders a query result order- and shard-insensitively.
func canonical(t *testing.T, ctx context.Context, q core.Querier, desc prov.Query) string {
	t.Helper()
	byRef := make(map[prov.Ref][]string)
	var refs []prov.Ref
	for e, err := range q.Query(ctx, desc) {
		if err != nil {
			t.Fatalf("query %s: %v", desc.Key(), err)
		}
		if _, ok := byRef[e.Ref]; !ok {
			refs = append(refs, e.Ref)
		}
		for _, r := range e.Records {
			byRef[e.Ref] = append(byRef[e.Ref], fmt.Sprintf("%s|%s|%s", r.Subject, r.Attr, r.Value.String()))
		}
	}
	prov.SortRefs(refs)
	var b strings.Builder
	for _, ref := range refs {
		lines := byRef[ref]
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s :: %s\n", ref, strings.Join(lines, " ; "))
	}
	return b.String()
}

// assertOracle requires got to answer every oracle query bit-identically
// to want.
func assertOracle(t *testing.T, ctx context.Context, want, got *target, when string) {
	t.Helper()
	for i, q := range oracleQueries() {
		w := canonical(t, ctx, want.router, q)
		g := canonical(t, ctx, got.router, q)
		if w != g {
			t.Fatalf("%s: query %d (%s) diverged:\ncontrol:\n%s\nmigrated:\n%s", when, i, q.Key(), w, g)
		}
	}
}

// assertClean requires every shard of tg to verify divergence-free.
func assertClean(t *testing.T, ctx context.Context, tg *target, when string) {
	t.Helper()
	res, err := integrity.VerifyStores(ctx, tg.auditors())
	if err != nil {
		t.Fatalf("%s: verify: %v", when, err)
	}
	if !res.Clean() {
		t.Fatalf("%s: verification found divergences: %v", when, res.Divergences())
	}
}

// assertSingleHome requires every stored subject to live on exactly one
// shard — the fully-moved-or-fully-unmoved invariant.
func assertSingleHome(t *testing.T, ctx context.Context, tg *target, when string) {
	t.Helper()
	home := make(map[prov.Ref]int)
	for i, a := range tg.auditors() {
		audit, err := a.Audit(ctx)
		if err != nil {
			t.Fatalf("%s: audit shard %d: %v", when, i, err)
		}
		for ref := range audit.Entries {
			if prev, ok := home[ref]; ok {
				t.Fatalf("%s: %s stored on both shard %d and shard %d (partial migration)", when, ref, prev, i)
			}
			home[ref] = i
		}
	}
}

// TestSplitMigrationOracle: a full split must keep every query
// bit-identical to a never-migrated control, move a non-empty arc, and
// leave both sides verifying clean.
func TestSplitMigrationOracle(t *testing.T) {
	ctx := context.Background()
	batches := workloadBatches(t)
	for _, arch := range arches {
		for _, seed := range []int64{1, 2009} {
			t.Run(fmt.Sprintf("%s/seed=%d", arch, seed), func(t *testing.T) {
				control := buildTarget(t, arch, 4, seed)
				migrated := buildTarget(t, arch, 4, seed)
				replay(t, ctx, control, batches)
				replay(t, ctx, migrated, batches)
				assertOracle(t, ctx, control, migrated, "before migration")

				c := controller(t, migrated, nil, nil)
				plan, err := c.PlanSplit(0, 1)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				rep, err := c.Execute(ctx, plan)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				if rep.Subjects == 0 {
					t.Fatal("split moved no subjects; workload too small to exercise the arc")
				}
				if rep.Epoch != 1 || migrated.router.RingEpoch() != 1 {
					t.Fatalf("ring epoch = %d after one flip", migrated.router.RingEpoch())
				}
				if migrated.router.Migrating() {
					t.Fatal("double-read window left open after Execute")
				}
				if rep.MigTotalOps == 0 || rep.USD <= 0 {
					t.Fatalf("migration cost not metered: ops=%d usd=%f", rep.MigTotalOps, rep.USD)
				}
				assertOracle(t, ctx, control, migrated, "after migration")
				assertClean(t, ctx, migrated, "after migration")
				assertSingleHome(t, ctx, migrated, "after migration")
			})
		}
	}
}

// TestMergeRestoresPlacement: a split followed by a merge back must
// return every object to the source and stay query-identical.
func TestMergeRestoresPlacement(t *testing.T) {
	ctx := context.Background()
	batches := workloadBatches(t)
	control := buildTarget(t, "s3+sdb", 4, 7)
	migrated := buildTarget(t, "s3+sdb", 4, 7)
	replay(t, ctx, control, batches)
	replay(t, ctx, migrated, batches)

	c := controller(t, migrated, nil, nil)
	plan, err := c.PlanSplit(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, plan); err != nil {
		t.Fatalf("split: %v", err)
	}
	// Merge shard 3 back into shard 0 — note merge moves *all* of 3's
	// points, including any it owned at boot.
	mplan, err := c.PlanMerge(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, mplan); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := migrated.router.RingEpoch(); got != 2 {
		t.Fatalf("ring epoch = %d after two flips", got)
	}
	assertOracle(t, ctx, control, migrated, "after split+merge")
	assertClean(t, ctx, migrated, "after split+merge")
	assertSingleHome(t, ctx, migrated, "after split+merge")
}

// TestMigrationCrashPoints arms a crash at every controller fault point
// and requires: queries stay bit-identical through the open window,
// recovery converges to fully-moved or fully-unmoved (never partial),
// and the namespace verifies clean afterwards.
func TestMigrationCrashPoints(t *testing.T) {
	ctx := context.Background()
	batches := workloadBatches(t)
	points := []struct {
		point *sim.Point
		want  reshard.Phase
	}{
		{reshard.PointBeforeImport, reshard.PhaseCopied},
		{reshard.PointAfterImport, reshard.PhaseCopied},
		{reshard.PointBeforeFlip, reshard.PhaseCopied},
		{reshard.PointAfterFlip, reshard.PhaseFlipped},
	}
	for _, arch := range arches {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%s", arch, pt.point), func(t *testing.T) {
				control := buildTarget(t, arch, 4, 11)
				migrated := buildTarget(t, arch, 4, 11)
				replay(t, ctx, control, batches)
				replay(t, ctx, migrated, batches)

				faults := sim.NewFaultPlan()
				faults.Arm(pt.point)
				c := controller(t, migrated, faults, nil)
				plan, err := c.PlanSplit(0, 2)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Execute(ctx, plan); err == nil {
					t.Fatal("armed crash did not fire")
				}
				if got := c.Status().Phase; got != pt.want {
					t.Fatalf("journal phase after crash = %v, want %v", got, pt.want)
				}
				// The double-read window must keep mid-crash queries exact.
				assertOracle(t, ctx, control, migrated, "mid-crash")

				from, err := c.Recover(ctx)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if from != pt.want {
					t.Fatalf("recovered from %v, want %v", from, pt.want)
				}
				if c.Status().Phase != reshard.PhaseIdle || migrated.router.Migrating() {
					t.Fatal("recovery did not close the migration")
				}
				// Fully-moved or fully-unmoved: the flip decides which.
				wantEpoch := 0
				if pt.want == reshard.PhaseFlipped {
					wantEpoch = 1
				}
				if got := migrated.router.RingEpoch(); got != wantEpoch {
					t.Fatalf("ring epoch after recovery = %d, want %d", got, wantEpoch)
				}
				assertOracle(t, ctx, control, migrated, "post-recovery")
				assertClean(t, ctx, migrated, "post-recovery")
				assertSingleHome(t, ctx, migrated, "post-recovery")

				// Recover is idempotent.
				if from, err := c.Recover(ctx); err != nil || from != reshard.PhaseIdle {
					t.Fatalf("second recover = (%v, %v), want (idle, nil)", from, err)
				}
			})
		}
	}
}

// TestCorruptionDuringCopyDetectedBeforeFlip tampers with the
// destination's freshly imported copy and requires the pre-cutover
// verification to abort the migration to fully-unmoved — the ring never
// flips over a corrupt copy.
func TestCorruptionDuringCopyDetectedBeforeFlip(t *testing.T) {
	ctx := context.Background()
	batches := workloadBatches(t)
	for _, arch := range []string{"s3", "s3+sdb"} {
		t.Run(arch, func(t *testing.T) {
			control := buildTarget(t, arch, 4, 13)
			migrated := buildTarget(t, arch, 4, 13)
			replay(t, ctx, control, batches)
			replay(t, ctx, migrated, batches)

			var c *reshard.Controller
			var plan *reshard.Plan
			tampered := false
			tamper := func(ctx context.Context) error {
				moved := plan.Moved(c)
				dst := migrated.clouds[plan.Dst]
				switch arch {
				case "s3+sdb":
					// Drop one record attribute from a moved item.
					res, err := dst.SDB.Select("select itemName() from provenance", "")
					if err != nil {
						return err
					}
					for _, item := range res.Items {
						ref, perr := prov.ParseItemName(item.Name)
						if perr != nil || !moved(ref.Object) {
							continue
						}
						attrs, ok, err := dst.SDB.GetAttributes("provenance", item.Name)
						if err != nil || !ok {
							continue
						}
						for _, a := range attrs {
							if a.Name == "x-md5" || a.Name == "x-more" || a.Name == integrity.AttrRoot {
								continue
							}
							if err := dst.SDB.DeleteAttributes("provenance", item.Name, []sdb.Attr{a}); err != nil {
								return err
							}
							tampered = true
							return nil
						}
					}
				case "s3":
					// Delete one moved carrier outright.
					page, err := dst.S3.List("pass", "data/", "", 0)
					if err != nil {
						return err
					}
					for _, info := range page.Objects {
						object := prov.ObjectID(strings.TrimPrefix(info.Key, "data"))
						if !moved(object) {
							continue
						}
						if err := dst.S3.Delete("pass", info.Key); err != nil {
							return err
						}
						tampered = true
						return nil
					}
				}
				return errors.New("no moved state found to tamper with")
			}
			c = controller(t, migrated, nil, tamper)
			var err error
			plan, err = c.PlanSplit(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Execute(ctx, plan)
			if !errors.Is(err, reshard.ErrVerifyFailed) {
				t.Fatalf("execute with tampered copy = %v, want ErrVerifyFailed", err)
			}
			if !tampered {
				t.Fatal("tamper hook never mutated the destination")
			}
			if got := migrated.router.RingEpoch(); got != 0 {
				t.Fatalf("ring flipped (epoch %d) over a corrupt copy", got)
			}
			if migrated.router.Migrating() || c.Status().Phase != reshard.PhaseIdle {
				t.Fatal("aborted migration left the window open")
			}
			assertOracle(t, ctx, control, migrated, "after abort")
			assertClean(t, ctx, migrated, "after abort")
			assertSingleHome(t, ctx, migrated, "after abort")
		})
	}
}

// TestIdleControllerCostParity: a namespace with an idle controller must
// spend exactly the same cloud ops as one without any controller, and
// stamps must keep their pre-epoch format.
func TestIdleControllerCostParity(t *testing.T) {
	ctx := context.Background()
	batches := workloadBatches(t)
	plain := buildTarget(t, "s3+sdb", 4, 17)
	managed := buildTarget(t, "s3+sdb", 4, 17)
	c := controller(t, managed, nil, nil)
	c.SampleBaseline()

	replay(t, ctx, plain, batches)
	replay(t, ctx, managed, batches)
	for _, q := range oracleQueries() {
		canonical(t, ctx, plain.router, q)
		canonical(t, ctx, managed.router, q)
	}
	rep, err := c.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Balanced traffic across 4 shards never crosses the 0.5 ceiling.
	if rep.Action != "none" {
		t.Fatalf("idle reconciliation acted: %q", rep.Action)
	}
	if p, m := plain.totalOps(), managed.totalOps(); p != m {
		t.Fatalf("idle controller changed op count: plain=%d managed=%d", p, m)
	}
	if s := managed.router.StampToken(); strings.HasPrefix(s, "e") {
		t.Fatalf("idle stamp carries an epoch prefix: %q", s)
	}
}
