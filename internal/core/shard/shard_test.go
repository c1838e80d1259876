package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// target bundles one store under test with the bookkeeping the harness
// needs: the clouds metering it and any commit-daemon drain.
type target struct {
	store  shard.Store
	router *shard.Router // nil for unsharded targets
	clouds []*cloud.Cloud
	drains []func(context.Context) error
}

func (tg *target) querier() core.Querier { return tg.store.(core.Querier) }

func (tg *target) drain(ctx context.Context, t *testing.T) {
	t.Helper()
	for _, d := range tg.drains {
		if err := d(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

func (tg *target) totalOps() int64 {
	var n int64
	for _, cl := range tg.clouds {
		n += cl.Usage().TotalOps()
	}
	return n
}

// buildStore constructs one architecture store on cl.
func buildStore(t testing.TB, arch string, cl *cloud.Cloud, clientID string, uncached bool) (shard.Store, func(context.Context) error) {
	t.Helper()
	switch arch {
	case "s3":
		st, err := s3only.New(s3only.Config{Cloud: cl, DisableQueryCache: uncached})
		if err != nil {
			t.Fatal(err)
		}
		return st, nil
	case "s3+sdb":
		st, err := s3sdb.New(s3sdb.Config{Cloud: cl, DisableQueryCache: uncached})
		if err != nil {
			t.Fatal(err)
		}
		return st, nil
	case "s3+sdb+sqs":
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: clientID, DisableQueryCache: uncached})
		if err != nil {
			t.Fatal(err)
		}
		daemon := s3sdbsqs.NewCommitDaemon(st, nil)
		drain := func(ctx context.Context) error {
			for i := 0; i < 50; i++ {
				n, err := daemon.RunOnce(ctx, true)
				if err != nil {
					return err
				}
				if n == 0 && daemon.PendingTransactions() == 0 {
					return nil
				}
			}
			return errors.New("commit daemon did not drain")
		}
		return st, drain
	default:
		t.Fatalf("unknown arch %q", arch)
		return nil, nil
	}
}

// buildTarget builds an n-shard router (or, for n = 1, the bare store)
// over isolated namespaces of one simulated region.
func buildTarget(t testing.TB, arch string, n int, seed int64, uncached bool) *target {
	t.Helper()
	return buildWrapped(t, arch, n, seed, uncached, func(_ int, st shard.Store) shard.Store { return st })
}

// buildWrapped is buildTarget with every member passed through wrap before
// the router sees it.
func buildWrapped(t testing.TB, arch string, n int, seed int64, uncached bool, wrap func(int, shard.Store) shard.Store) *target {
	t.Helper()
	multi := cloud.NewMulti(cloud.Config{Seed: seed})
	tg := &target{}
	var stores []shard.Store
	for i := 0; i < n; i++ {
		cl := multi.Namespace(fmt.Sprintf("shard%d", i))
		st, drain := buildStore(t, arch, cl, fmt.Sprintf("c%d", i), uncached)
		stores = append(stores, wrap(i, st))
		tg.clouds = append(tg.clouds, cl)
		if drain != nil {
			tg.drains = append(tg.drains, drain)
		}
	}
	if n == 1 {
		tg.store = stores[0]
		return tg
	}
	r, err := shard.New(shard.Config{Shards: stores})
	if err != nil {
		t.Fatal(err)
	}
	tg.store = r
	tg.router = r
	return tg
}

// blastEnv is the environment captureBatches gives blast: longer than any
// predicate value a backend can push down (core.Pushable).
var blastEnv = "LAB=x " + strings.Repeat("E", 1200)

// captureBatches drives a scripted PASS workload and records the flush
// batches, so the identical event stream can replay into any store.
func captureBatches(t testing.TB) [][]pass.FlushEvent {
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
	for i := 0; i < 6; i++ {
		must(sys.Ingest(ctx, fmt.Sprintf("/data/in%d", i), []byte(fmt.Sprintf("dataset-%d", i))))
	}
	blast := sys.Exec(nil, pass.ExecSpec{Name: "blast", Argv: []string{"blast", "-p"}, Env: blastEnv})
	must(sys.Read(blast, "/data/in0"))
	must(sys.Read(blast, "/data/in1"))
	must(sys.Write(blast, "/out/blast0", []byte("hits-0"), pass.Truncate))
	must(sys.Close(ctx, blast, "/out/blast0"))
	must(sys.Read(blast, "/data/in2"))
	must(sys.Write(blast, "/out/blast1", []byte("hits-1"), pass.Truncate))
	must(sys.Close(ctx, blast, "/out/blast1"))

	sorter := sys.Exec(nil, pass.ExecSpec{Name: "sort", Argv: []string{"sort", "-n"}})
	must(sys.Read(sorter, "/out/blast0"))
	must(sys.Read(sorter, "/data/in3"))
	must(sys.Write(sorter, "/res/sorted0", []byte("sorted"), pass.Truncate))
	must(sys.Close(ctx, sorter, "/res/sorted0"))

	mean := sys.Exec(nil, pass.ExecSpec{Name: "softmean", Argv: []string{"softmean"}})
	must(sys.Read(mean, "/out/blast1"))
	must(sys.Read(mean, "/res/sorted0"))
	must(sys.Write(mean, "/res/mean", []byte("m0"), pass.Truncate))
	must(sys.Close(ctx, mean, "/res/mean"))
	// Overwrite an output (superseded version survives only as input edges
	// on the S3-only architecture) and append a new version elsewhere.
	redo := sys.Exec(nil, pass.ExecSpec{Name: "blast", Argv: []string{"blast", "-redo"}})
	must(sys.Read(redo, "/data/in4"))
	must(sys.Write(redo, "/out/blast0", []byte("hits-0b"), pass.Truncate))
	must(sys.Close(ctx, redo, "/out/blast0"))
	must(sys.Read(mean, "/out/blast0"))
	must(sys.Write(mean, "/res/mean", []byte("m0+m1"), pass.Append))
	must(sys.Close(ctx, mean, "/res/mean"))
	sys.Exit(blast)
	sys.Exit(sorter)
	sys.Exit(mean)
	sys.Exit(redo)
	must(sys.Sync(ctx))
	return batches
}

// replay writes the captured batches into tg and settles it.
func replay(t *testing.T, ctx context.Context, tg *target, batches [][]pass.FlushEvent) {
	t.Helper()
	for _, b := range batches {
		if err := tg.store.PutBatch(ctx, b); err != nil {
			t.Fatalf("replay PutBatch: %v", err)
		}
	}
	if err := core.SyncStore(ctx, tg.store); err != nil {
		t.Fatalf("replay sync: %v", err)
	}
	tg.drain(ctx, t)
}

// canonical renders a query result set in comparison form: one line per
// ref, records sorted, so two stores answering the same question must
// produce equal strings regardless of stream order.
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

// testQueries is the fixed descriptor set every equivalence check runs.
func testQueries() []prov.Query {
	return []prov.Query{
		prov.Q1(),
		prov.QOutputsOf("blast"),
		prov.QDescendantsOfOutputs("blast"),
		prov.QDependents("/data/in0"),
		prov.QDependents("/out/blast0"),
		{Refs: []prov.Ref{{Object: "/res/mean", Version: 1}}, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{Type: prov.TypeProcess, Projection: prov.ProjectFull},
		{RefPrefix: "/out/", Projection: prov.ProjectFull},
		{Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}, Projection: prov.ProjectFull},
		{Type: prov.TypeFile, RefPrefix: "/res/", Projection: prov.ProjectRefs},
		{Tool: "softmean", Type: prov.TypeFile, Direction: prov.TraverseDescendants, Depth: 2, Projection: prov.ProjectRefs},
		{Refs: []prov.Ref{{Object: "/out/blast0", Version: 1}, {Object: "/data/in5", Version: 1}}, Projection: prov.ProjectFull},
		{RefPrefix: "/data/in1:", Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectRefs},
	}
}

// TestShardedMatchesUnsharded is the scale-out correctness property: for
// every architecture, a 4-shard router must answer every descriptor
// identically to an unsharded store holding the union of the data.
func TestShardedMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, uncached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/uncached=%v", arch, uncached), func(t *testing.T) {
				flat := buildTarget(t, arch, 1, 2009, uncached)
				sharded := buildTarget(t, arch, 4, 2009, uncached)
				replay(t, ctx, flat, batches)
				replay(t, ctx, sharded, batches)
				for i, q := range testQueries() {
					want := canonical(t, ctx, flat.querier(), q)
					got := canonical(t, ctx, sharded.querier(), q)
					if want != got {
						t.Errorf("query %d (%s):\nunsharded:\n%s\nsharded:\n%s", i, q.Key(), want, got)
					}
				}
			})
		}
	}
}

// TestShardedMatchesUnshardedRandomized drives seeded random descriptors
// through the 4-shard router and the unsharded store, and holds both to the
// reference evaluator on the unsharded store's graph. Every shape class the
// router answers from its member graphs — where the members cannot run the
// rounds natively — must be drawn on every architecture.
func TestShardedMatchesUnshardedRandomized(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	rng := sim.NewRNG(4242)

	tools := []string{"blast", "sort", "softmean", "missing"}
	types := []string{prov.TypeFile, prov.TypeProcess, ""}
	prefixes := []string{"", "/out/", "/data/", "/data/in0:", "/res/mean:", "/nope/"}
	refPool := []prov.Ref{
		{Object: "/out/blast0", Version: 1}, {Object: "/out/blast0", Version: 2},
		{Object: "/res/mean", Version: 1}, {Object: "/data/in2", Version: 1},
		{Object: "/ghost", Version: 7},
	}

	randomQuery := func() prov.Query {
		q := prov.Query{}
		if rng.Intn(4) == 0 {
			q.Tool = tools[rng.Intn(len(tools))]
		}
		q.Type = types[rng.Intn(len(types))]
		switch rng.Intn(6) {
		case 0, 1:
			q.Attrs = append(q.Attrs, prov.AttrFilter{Attr: prov.AttrName, Value: tools[rng.Intn(len(tools))]})
		case 2:
			q.Attrs = append(q.Attrs, prov.AttrFilter{Attr: prov.AttrEnv, Value: blastEnv})
		}
		q.RefPrefix = prefixes[rng.Intn(len(prefixes))]
		if rng.Intn(4) == 0 {
			n := 1 + rng.Intn(2)
			for i := 0; i < n; i++ {
				q.Refs = append(q.Refs, refPool[rng.Intn(len(refPool))])
			}
		}
		if rng.Intn(5) == 0 {
			q = prov.Query{} // from everything
		}
		switch rng.Intn(3) {
		case 1:
			q.Direction = prov.TraverseDescendants
		case 2:
			q.Direction = prov.TraverseAncestors
		}
		if q.Direction != prov.TraverseNone {
			q.Depth = rng.Intn(3)
			q.IncludeSeeds = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			q.Projection = prov.ProjectRefs
		}
		return q
	}
	// shapes names the classes q belongs to that no member plans natively.
	shapes := func(q prov.Query) (in []string) {
		for _, f := range q.AttrFilters() {
			if !core.Pushable(f.Value) && (q.Tool != "" || len(q.Refs) == 0) {
				in = append(in, "value over the predicate limit")
				break
			}
		}
		if q.Tool != "" && len(q.Refs) > 0 {
			in = append(in, "tool under pinned refs")
		}
		switch {
		case q.HasFilters():
		case q.Direction == prov.TraverseDescendants:
			in = append(in, "descendants of everything")
		case q.Direction == prov.TraverseAncestors:
			in = append(in, "ancestors of everything")
		}
		if q.Direction == prov.TraverseAncestors && len(q.Refs) == 0 && q.Tool == "" {
			in = append(in, "ancestor walk without pins or tool")
		}
		return in
	}
	classes := []string{"value over the predicate limit", "tool under pinned refs",
		"descendants of everything", "ancestors of everything", "ancestor walk without pins or tool"}

	for _, arch := range []string{"s3", "s3+sdb"} {
		t.Run(arch, func(t *testing.T) {
			flat := buildTarget(t, arch, 1, 99, false)
			sharded := buildTarget(t, arch, 4, 99, false)
			replay(t, ctx, flat, batches)
			replay(t, ctx, sharded, batches)
			// Both sides run the same engine where they answer from graphs,
			// so the reference evaluator on the unsharded graph judges too.
			g, err := core.ProvenanceGraph(ctx, flat.querier())
			if err != nil {
				t.Fatal(err)
			}
			drawn := make(map[string]int)
			for i := 0; i < 100; i++ {
				q := randomQuery()
				if q.Validate() != nil {
					continue
				}
				for _, shape := range shapes(q) {
					drawn[shape]++
				}
				want := canonical(t, ctx, flat.querier(), q)
				got := canonical(t, ctx, sharded.querier(), q)
				if want != got {
					t.Fatalf("random query %d (%s):\nunsharded:\n%s\nsharded:\n%s", i, q.Key(), want, got)
				}
				if oracle := canonicalEntries(core.EvalQuery(g, q)); want != oracle {
					t.Fatalf("random query %d (%s):\nstores:\n%s\nevaluator:\n%s", i, q.Key(), want, oracle)
				}
			}
			for _, class := range classes {
				if drawn[class] == 0 {
					t.Errorf("no draw of %q: %v", class, drawn)
				}
			}
		})
	}
}

// TestRouterExplainMatchesMeteredOps: on the uncached path, the composite
// plan must predict the metered cross-shard operation count exactly —
// the acceptance bar for honest fan-in plans.
func TestRouterExplainMatchesMeteredOps(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		t.Run(arch, func(t *testing.T) {
			tg := buildTarget(t, arch, 4, 7, true)
			replay(t, ctx, tg, batches)
			for i, q := range testQueries() {
				plan := tg.router.Explain(q)
				if !plan.Exact {
					t.Fatalf("query %d (%s): plan degraded to estimate on a single-writer repository", i, q.Key())
				}
				before := tg.totalOps()
				for _, err := range tg.router.Query(ctx, q) {
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
				}
				metered := tg.totalOps() - before
				if plan.EstOps != metered {
					t.Errorf("query %d (%s): predicted %d ops, metered %d\n%s", i, q.Key(), plan.EstOps, metered, plan)
				}
			}
		})
	}
}

// TestPerShardCacheInvalidation: another client's write to one shard must
// invalidate only that shard's snapshot; the other shards keep answering
// from their warm caches — the scale-out dividend of per-shard qcache
// invalidation. A write through the router itself invalidates nothing: the
// member it lands on patches its snapshot with it.
func TestPerShardCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	tg := buildTarget(t, "s3", 4, 11, false)
	replay(t, ctx, tg, batches)

	// Warm every shard.
	for _, err := range tg.router.Query(ctx, prov.Q1()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := tg.router.Explain(prov.Q1()); !p.Cached || p.EstOps != 0 {
		t.Fatalf("expected fully warm composite plan, got %s", p)
	}

	// Another client overwrites one object: exactly one shard invalidates.
	// (An object the member stored itself, so its plan still counts the
	// objects right — though no longer exactly: the member saw a foreign write.)
	obj := prov.ObjectID("/data/in0")
	hot := tg.router.ShardFor(obj)
	other, err := s3only.New(s3only.Config{Cloud: tg.clouds[hot], Writer: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.PutBatch(ctx, []pass.FlushEvent{writeEvent(obj)}); err != nil {
		t.Fatal(err)
	}

	plan := tg.router.Explain(prov.Q1())
	if plan.Cached {
		t.Fatalf("composite plan still claims cached after a write: %s", plan)
	}
	perShardBefore := make([]int64, len(tg.clouds))
	for i, cl := range tg.clouds {
		perShardBefore[i] = cl.Usage().TotalOps()
	}
	for _, err := range tg.router.Query(ctx, prov.Q1()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var metered int64
	for i, cl := range tg.clouds {
		delta := cl.Usage().TotalOps() - perShardBefore[i]
		metered += delta
		if i == hot && delta == 0 {
			t.Errorf("written shard %d served from a stale cache", i)
		}
		if i != hot && delta != 0 {
			t.Errorf("unwritten shard %d re-scanned (%d ops) after a foreign-shard write", i, delta)
		}
	}
	if plan.EstOps != metered {
		t.Errorf("post-write plan predicted %d ops, metered %d\n%s", plan.EstOps, metered, plan)
	}

	// A write through the router: the plan stays cached, the query meters
	// nothing, and the answer is what fresh uncached readers of the four
	// namespaces see.
	if err := tg.store.PutBatch(ctx, []pass.FlushEvent{writeEvent("/post/own")}); err != nil {
		t.Fatal(err)
	}
	if plan := tg.router.Explain(prov.Q1()); !plan.Cached || plan.EstOps != 0 {
		t.Fatalf("composite plan after an own write is not cached: %s", plan)
	}
	before := tg.totalOps()
	got := canonical(t, ctx, tg.querier(), prov.Q1())
	if ops := tg.totalOps() - before; ops != 0 {
		t.Fatalf("query after an own write metered %d ops", ops)
	}
	fresh := make([]shard.Store, len(tg.clouds))
	for i, cl := range tg.clouds {
		if fresh[i], err = s3only.New(s3only.Config{Cloud: cl, DisableQueryCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	scan, err := shard.New(shard.Config{Shards: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if want := canonical(t, ctx, scan, prov.Q1()); got != want {
		t.Fatalf("answer after an own write differs from a fresh scan:\n%s\nwant\n%s", got, want)
	}
}

// TestPartialWriteMerge: when one shard's sub-batch fails, the router's
// error must be a typed PartialWriteError whose Landed set is the union
// of every shard's durable events, so the flush layer retries only the
// remainder.
func TestPartialWriteMerge(t *testing.T) {
	ctx := context.Background()
	multi := cloud.NewMulti(cloud.Config{Seed: 3})
	okCl := multi.Namespace("ok")
	badFaults := sim.NewFaultPlan()
	badCl := cloud.New(cloud.Config{Seed: 4, Faults: badFaults})

	okStore, err := s3only.New(s3only.Config{Cloud: okCl})
	if err != nil {
		t.Fatal(err)
	}
	badStore, err := s3only.New(s3only.Config{Cloud: badCl, PutConcurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.New(shard.Config{Shards: []shard.Store{okStore, badStore}})
	if err != nil {
		t.Fatal(err)
	}

	// Find object names homed on each shard.
	nameOn := func(want int) prov.ObjectID {
		for i := 0; ; i++ {
			obj := prov.ObjectID(fmt.Sprintf("/f/p%d", i))
			if r.ShardFor(obj) == want {
				return obj
			}
		}
	}
	okObj, badObj := nameOn(0), nameOn(1)
	mk := func(obj prov.ObjectID) pass.FlushEvent {
		ref := prov.Ref{Object: obj, Version: 1}
		return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte("d"), Records: []prov.Record{
			{Subject: ref, Attr: prov.AttrType, Value: prov.StringValue(prov.TypeFile)},
		}}
	}

	badFaults.ArmOp("s3/PUT", sim.ClassPermanent, 0, 8) // every data PUT on the bad shard fails
	err = r.PutBatch(ctx, []pass.FlushEvent{mk(okObj), mk(badObj)})
	if err == nil {
		t.Fatal("expected a partial-write error")
	}
	var pw *core.PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("expected PartialWriteError, got %v", err)
	}
	landed := make(map[prov.Ref]bool)
	for _, ref := range pw.Landed {
		landed[ref] = true
	}
	if !landed[prov.Ref{Object: okObj, Version: 1}] {
		t.Errorf("healthy shard's event missing from Landed: %v", pw.Landed)
	}
	if landed[prov.Ref{Object: badObj, Version: 1}] {
		t.Errorf("failed shard's event reported durable: %v", pw.Landed)
	}
}

// TestRingPlacement: placement is deterministic, version-independent and
// reasonably balanced.
func TestRingPlacement(t *testing.T) {
	var stores []shard.Store
	multi := cloud.NewMulti(cloud.Config{Seed: 5})
	for i := 0; i < 4; i++ {
		st, err := s3only.New(s3only.Config{Cloud: multi.Namespace(fmt.Sprintf("s%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	r, err := shard.New(shard.Config{Shards: stores})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := shard.New(shard.Config{Shards: stores})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		obj := prov.ObjectID(fmt.Sprintf("/w/%d/file%d", i%7, i))
		s := r.ShardFor(obj)
		if s2 := r2.ShardFor(obj); s2 != s {
			t.Fatalf("placement not deterministic for %s: %d vs %d", obj, s, s2)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < 400 || c > 2200 {
			t.Errorf("shard %d owns %d/4000 objects — ring badly unbalanced: %v", i, c, counts)
		}
	}
}
