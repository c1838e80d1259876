package shard_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// probedMember wraps a member to count what the router asks of it and, while
// held, to block whatever would scan its repository — a Query or a
// ProvenanceGraph call — until released or the caller's context ends.
type probedMember struct {
	shard.Store
	queries, graphs atomic.Int64

	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{} // one signal per call that found the gate shut
}

// probed builds an n-shard router over probed members.
func probed(t testing.TB, arch string, n int, seed int64, uncached bool) (*target, []*probedMember) {
	members := make([]*probedMember, n)
	tg := buildWrapped(t, arch, n, seed, uncached, func(i int, st shard.Store) shard.Store {
		members[i] = &probedMember{Store: st, entered: make(chan struct{}, 16)}
		return members[i]
	})
	return tg, members
}

// calls sums the members' Query and ProvenanceGraph counts.
func calls(members []*probedMember) (n int64) {
	for _, m := range members {
		n += m.queries.Load() + m.graphs.Load()
	}
	return n
}

// hold shuts the gate; the returned func opens it, once.
func (m *probedMember) hold() (release func()) {
	gate := make(chan struct{})
	m.mu.Lock()
	m.gate = gate
	m.mu.Unlock()
	return sync.OnceFunc(func() {
		m.mu.Lock()
		m.gate = nil
		m.mu.Unlock()
		close(gate)
	})
}

func (m *probedMember) wait(ctx context.Context) error {
	m.mu.Lock()
	gate := m.gate
	m.mu.Unlock()
	if gate == nil {
		return nil
	}
	m.entered <- struct{}{}
	select {
	case <-gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *probedMember) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	m.queries.Add(1)
	return func(yield func(core.Entry, error) bool) {
		if err := m.wait(ctx); err != nil {
			yield(core.Entry{}, err)
			return
		}
		m.Store.Query(ctx, q)(yield)
	}
}

func (m *probedMember) ProvenanceGraph(ctx context.Context) (*prov.Graph, error) {
	m.graphs.Add(1)
	if err := m.wait(ctx); err != nil {
		return nil, err
	}
	return core.ProvenanceGraph(ctx, m.Store)
}

// stuckAfter bounds how long a call that must not block is given before the
// test calls it blocked. Only a failing run waits this long.
const stuckAfter = 10 * time.Second

// ancestorsOfMean is answered on the member graphs on every architecture's
// probed members (a wrapped member plans no references).
var ancestorsOfMean = prov.QAncestors(prov.Ref{Object: "/res/mean", Version: 1})

// TestAncestorsOfMeanWalksALineage: ancestorsOfMean starts at a version
// captureBatches writes, so the checks built on it walk a real lineage
// rather than one fetch that finds nothing.
func TestAncestorsOfMeanWalksALineage(t *testing.T) {
	ctx := context.Background()
	tg := buildTarget(t, "s3+sdb", 4, 5, true)
	replay(t, ctx, tg, captureBatches(t))
	refs, err := core.CollectRefs(tg.router.Query(ctx, ancestorsOfMean))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(refs, (prov.Ref{Object: "/data/in0", Version: 0})) {
		t.Fatalf("ancestors of /res/mean:1 = %v, want its lineage back to /data/in0:0", refs)
	}
}

// TestRouterExplainDoesNotWaitOnPartScan: Explain is a prediction without
// cloud traffic, so it must return while a fetch of the member graphs is
// waiting on a member's scan.
func TestRouterExplainDoesNotWaitOnPartScan(t *testing.T) {
	ctx := context.Background()
	tg, members := probed(t, "s3", 4, 37, true)
	replay(t, ctx, tg, captureBatches(t))

	release := members[0].hold()
	defer release()
	queried := make(chan error, 1)
	go func() {
		_, err := core.CollectRefs(tg.router.Query(ctx, ancestorsOfMean))
		queried <- err
	}()
	<-members[0].entered // the fetch is in flight, its scan of shard 0 held

	explained := make(chan core.QueryPlan, 1)
	go func() { explained <- tg.router.Explain(ancestorsOfMean) }()
	select {
	case plan := <-explained:
		if plan.Strategy != "union-graph" || plan.Cached || plan.EstOps == 0 {
			t.Errorf("plan beside a cold fetch in flight: %s", plan)
		}
		release()
	case <-time.After(stuckAfter):
		t.Error("Explain waited for a member scan in flight")
		release()
		<-explained
	}
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
}

// derivedFile is a flush event for a new file version listing inputs.
func derivedFile(obj prov.ObjectID, inputs ...prov.Ref) pass.FlushEvent {
	ev := writeEvent(obj)
	for _, in := range inputs {
		ev.Records = append(ev.Records, prov.NewInput(ev.Ref, in))
	}
	return ev
}

// memberOracle evaluates q on a graph read from the members one by one,
// beside the router's caches.
func memberOracle(t *testing.T, ctx context.Context, tg *target, q prov.Query) string {
	t.Helper()
	g := prov.NewGraph()
	for i := 0; i < tg.router.NumShards(); i++ {
		for e, err := range tg.router.Shard(i).Query(ctx, prov.Q1()) {
			if err != nil {
				t.Fatal(err)
			}
			g.AddAll(e.Records)
		}
	}
	return canonicalEntries(core.EvalQuery(g, q))
}

// blastProcess finds an instance of blast to hang new outputs on.
func blastProcess(t *testing.T, ctx context.Context, tg *target) prov.Ref {
	t.Helper()
	procs, err := core.CollectRefs(tg.router.Query(ctx, prov.Query{
		Type: prov.TypeProcess, Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}, Projection: prov.ProjectRefs}))
	if err != nil || len(procs) == 0 {
		t.Fatalf("no blast process: %v, %v", procs, err)
	}
	return procs[0]
}

// TestRouterMemoNeverServesAcrossWrite: with a writer beside them, repeated
// Q.2, Q.3 and ancestor queries race the memo's record-if-unmoved rule; once
// each write is done, every answer — evaluated, then remembered — must be
// core.EvalQuery's on the graph read after it. Every write changes all three.
func TestRouterMemoNeverServesAcrossWrite(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		t.Run(arch, func(t *testing.T) {
			tg := buildTarget(t, arch, 4, 43, false)
			replay(t, ctx, tg, batches)
			blast := blastProcess(t, ctx, tg)
			link := func(i int) prov.Ref { return prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/memo/w%d", i)), Version: 1} }
			// tip's lineage runs through links not written yet: each write
			// lengthens it, and makes one more output of blast with tip
			// among its descendants.
			tip := derivedFile("/memo/tip", link(0))
			if err := tg.store.PutBatch(ctx, []pass.FlushEvent{tip}); err != nil {
				t.Fatal(err)
			}
			tg.drain(ctx, t)
			queries := []prov.Query{prov.QOutputsOf("blast"), prov.QDescendantsOfOutputs("blast"), prov.QAncestors(tip.Ref)}

			for i := 0; i < 6; i++ {
				written := make(chan error, 1)
				go func() {
					err := tg.store.PutBatch(ctx, []pass.FlushEvent{derivedFile(link(i).Object, blast, link(i+1))})
					for _, drain := range tg.drains {
						err = errors.Join(err, drain(ctx))
					}
					written <- err
				}()
				for racing := true; racing; {
					select {
					case err := <-written:
						if err != nil {
							t.Fatal(err)
						}
						racing = false
					default:
						for _, q := range queries {
							if _, err := core.CollectRefs(tg.router.Query(ctx, q)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, q := range queries {
					for _, how := range []string{"evaluated or remembered", "remembered"} {
						got := canonical(t, ctx, tg.querier(), q)
						if want := memberOracle(t, ctx, tg, q); got != want {
							t.Fatalf("after write %d, %s (%s):\ngot:\n%s\nwant:\n%s", i, q.Key(), how, got, want)
						}
					}
					if plan := tg.router.Explain(q); plan.Strategy != "memo" {
						t.Fatalf("after write %d, %s asked twice is not remembered: %s", i, q.Key(), plan)
					}
				}
			}
		})
	}
}

// TestRouterMemoBypassedMidMigration: no answer evaluated before a migration
// transition — begin, abort, flip, end — is served after it, and none is
// remembered while the window is open, the copy included. Members are
// uncached and every query is one whose evaluation costs cloud ops each time,
// so an answer that metered nothing was remembered.
func TestRouterMemoBypassedMidMigration(t *testing.T) {
	ctx := context.Background()
	tg := buildTarget(t, "s3+sdb", 4, 47, true)
	replay(t, ctx, tg, captureBatches(t))
	queries := []prov.Query{
		prov.QOutputsOf("blast"),
		prov.QDescendantsOfOutputs("blast"),
		ancestorsOfMean,
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = canonical(t, ctx, tg.querier(), q)
	}
	// ask runs every query and reports how many metered nothing; the
	// namespace's contents never change, so neither may any answer.
	ask := func(when string) (free int) {
		t.Helper()
		for i, q := range queries {
			before := tg.totalOps()
			if got := canonical(t, ctx, tg.querier(), q); got != want[i] {
				t.Fatalf("%s: %s changed its answer:\ngot:\n%s\nwant:\n%s", when, q.Key(), got, want[i])
			}
			if tg.totalOps() == before {
				free++
				if plan := tg.router.Explain(q); plan.Strategy != "memo" {
					t.Fatalf("%s: %s metered nothing yet is planned as %s", when, q.Key(), plan)
				}
			}
		}
		return free
	}
	evaluatedThenRemembered := func(when string) {
		t.Helper()
		if free := ask(when); free != 0 {
			t.Fatalf("%s: %d of %d answers from before were still served", when, free, len(queries))
		}
		if free := ask(when + ", again"); free != len(queries) {
			t.Fatalf("%s: only %d of %d repeats were remembered", when, free, len(queries))
		}
	}
	neverRemembered := func(when string) {
		t.Helper()
		for _, pass := range []string{"", ", again"} {
			if free := ask(when + pass); free != 0 {
				t.Fatalf("%s%s: %d answers were served from memory inside the window", when, pass, free)
			}
		}
	}
	if free := ask("idle"); free != len(queries) {
		t.Fatalf("idle: only %d of %d repeats were remembered", free, len(queries))
	}

	ctrl, err := reshard.New(reshard.Config{Router: tg.router, Clouds: tg.clouds})
	if err != nil {
		t.Fatal(err)
	}
	// Split the first shard whose shed arc holds anything, toward its
	// neighbour.
	var plan *reshard.Plan
	var moved func(prov.ObjectID) bool
	var src, dst core.Migrator
	for from := 0; ; from++ {
		if from == tg.router.NumShards() {
			t.Fatal("no split of this workload moves a subject")
		}
		if plan, err = ctrl.PlanSplit(from, (from+1)%tg.router.NumShards()); err != nil {
			t.Fatal(err)
		}
		moved = plan.Moved(ctrl)
		src, dst = tg.router.Shard(plan.Src).(core.Migrator), tg.router.Shard(plan.Dst).(core.Migrator)
		if exp, err := src.ExportArc(ctx, moved); err != nil {
			t.Fatal(err)
		} else if len(exp.Subjects) > 0 {
			break
		}
	}
	open := func() func(prov.ObjectID) bool {
		t.Helper()
		exp, err := src.ExportArc(ctx, moved)
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.router.BeginMigration(plan.Src, plan.Dst, exp.Subjects); err != nil {
			t.Fatal(err)
		}
		neverRemembered("window open")
		if err := dst.ImportArc(ctx, exp); err != nil {
			t.Fatal(err)
		}
		neverRemembered("arc copied")
		copied := make(map[prov.ObjectID]bool)
		for _, ref := range exp.Subjects {
			copied[ref.Object] = true
		}
		return func(o prov.ObjectID) bool { return moved(o) && copied[o] }
	}

	copied := open()
	if _, err := dst.RemoveArc(ctx, copied); err != nil {
		t.Fatal(err)
	}
	tg.router.AbortMigration()
	evaluatedThenRemembered("aborted")

	open()
	if err := tg.router.FlipRing(plan.Target); err != nil {
		t.Fatal(err)
	}
	neverRemembered("flipped")
	if _, err := src.RemoveArc(ctx, moved); err != nil {
		t.Fatal(err)
	}
	tg.router.EndMigration()
	evaluatedThenRemembered("ended")
}

// TestRouterExplainMatchesMeteredOpsAcrossMigrationWindow: a plan on the
// member graphs stays honest at every migration transition. The members keep
// their snapshots under their stamps across transitions (only the router's
// remembered answers go), so a query inside the window or right after it
// rescans only the caching shards the copy wrote — and Explain must say
// exactly that.
func TestRouterExplainMatchesMeteredOpsAcrossMigrationWindow(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	// No pinned or tool seeds: the ancestor walk every architecture's router
	// answers on the member graphs.
	q := prov.Query{Type: prov.TypeFile, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs}
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, uncached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/uncached=%v", arch, uncached), func(t *testing.T) {
				tg := buildTarget(t, arch, 4, 47, uncached)
				replay(t, ctx, tg, batches)
				want := canonical(t, ctx, tg.querier(), q)
				parity := func(when, strategy string) {
					t.Helper()
					plan := tg.router.Explain(q)
					if plan.Strategy != strategy {
						t.Fatalf("%s: planned as %q, want %q\n%s", when, plan.Strategy, strategy, plan)
					}
					before := tg.totalOps()
					got := canonical(t, ctx, tg.querier(), q)
					if metered := tg.totalOps() - before; plan.EstOps != metered {
						t.Errorf("%s: predicted %d ops, metered %d\n%s", when, plan.EstOps, metered, plan)
					}
					if got != want {
						t.Errorf("%s: the answer changed:\ngot:\n%s\nwant:\n%s", when, got, want)
					}
				}
				parity("idle", "memo")

				ctrl, err := reshard.New(reshard.Config{Router: tg.router, Clouds: tg.clouds})
				if err != nil {
					t.Fatal(err)
				}
				var plan *reshard.Plan
				var exp *core.ArcExport
				var src, dst core.Migrator
				export := func() {
					t.Helper()
					if exp, err = src.ExportArc(ctx, plan.Moved(ctrl)); err != nil {
						t.Fatal(err)
					}
				}
				for from := 0; exp == nil || len(exp.Subjects) == 0; from++ {
					if from == tg.router.NumShards() {
						t.Fatal("no split of this workload moves a subject")
					}
					if plan, err = ctrl.PlanSplit(from, (from+1)%tg.router.NumShards()); err != nil {
						t.Fatal(err)
					}
					src, dst = tg.router.Shard(plan.Src).(core.Migrator), tg.router.Shard(plan.Dst).(core.Migrator)
					export()
				}
				begin := func() {
					t.Helper()
					if err := tg.router.BeginMigration(plan.Src, plan.Dst, exp.Subjects); err != nil {
						t.Fatal(err)
					}
				}

				begin()
				parity("window open", "union-graph")
				tg.router.AbortMigration()
				parity("aborted", "union-graph")
				parity("aborted, again", "memo")

				export()
				begin()
				if err := dst.ImportArc(ctx, exp); err != nil {
					t.Fatal(err)
				}
				parity("arc copied", "union-graph")
				if err := tg.router.FlipRing(plan.Target); err != nil {
					t.Fatal(err)
				}
				parity("flipped", "union-graph")
				if _, err := src.RemoveArc(ctx, plan.Moved(ctrl)); err != nil {
					t.Fatal(err)
				}
				tg.router.EndMigration()
				parity("ended", "union-graph")
				parity("ended, again", "memo")
			})
		}
	}
}

// TestMemberGraphRoundsSeeOneCopy: while a migration window is open both
// copies of the moving arc sit in the member graphs the rounds run on, and
// every round on them must read the authoritative one only — records
// included, so a full projection never doubles a moved subject's records.
func TestMemberGraphRoundsSeeOneCopy(t *testing.T) {
	ctx := context.Background()
	tg := buildTarget(t, "s3", 4, 59, false)
	replay(t, ctx, tg, captureBatches(t))
	q := prov.Query{Type: prov.TypeFile, Direction: prov.TraverseAncestors, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectFull}
	want := canonical(t, ctx, tg.querier(), q)
	check := func(when string) {
		t.Helper()
		if plan := tg.router.Explain(q); plan.Strategy != "union-graph" {
			t.Fatalf("%s: planned as %s, want the member graphs", when, plan)
		}
		if got := canonical(t, ctx, tg.querier(), q); got != want {
			t.Fatalf("%s: the answer changed:\ngot:\n%s\nwant:\n%s", when, got, want)
		}
	}
	ctrl, err := reshard.New(reshard.Config{Router: tg.router, Clouds: tg.clouds})
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < tg.router.NumShards(); from++ {
		plan, err := ctrl.PlanSplit(from, (from+1)%tg.router.NumShards())
		if err != nil {
			t.Fatal(err)
		}
		src, dst := tg.router.Shard(plan.Src).(core.Migrator), tg.router.Shard(plan.Dst).(core.Migrator)
		exp, err := src.ExportArc(ctx, plan.Moved(ctrl))
		if err != nil {
			t.Fatal(err)
		}
		if len(exp.Subjects) == 0 {
			continue
		}
		if err := tg.router.BeginMigration(plan.Src, plan.Dst, exp.Subjects); err != nil {
			t.Fatal(err)
		}
		if err := dst.ImportArc(ctx, exp); err != nil {
			t.Fatal(err)
		}
		check("arc copied")
		if err := tg.router.FlipRing(plan.Target); err != nil {
			t.Fatal(err)
		}
		check("flipped, source copy not yet removed")
		return
	}
	t.Fatal("no split of this workload moves a subject")
}

// TestRouterMemoHitAllocations: serving a remembered Q.3 allocates for the
// stamp and the key, never per entry of the answer.
func TestRouterMemoHitAllocations(t *testing.T) {
	ctx := context.Background()
	tg := buildTarget(t, "s3", 4, 53, false)
	replay(t, ctx, tg, captureBatches(t))
	blast := blastProcess(t, ctx, tg)
	var batch []pass.FlushEvent
	for i := 0; i < 300; i++ {
		out := derivedFile(prov.ObjectID(fmt.Sprintf("/wide/out%03d", i)), blast)
		batch = append(batch, out, derivedFile(prov.ObjectID(fmt.Sprintf("/wide/use%03d", i)), out.Ref))
	}
	if err := tg.store.PutBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	q3 := prov.QDescendantsOfOutputs("blast")
	n := 0
	ask := func() {
		n = 0
		for _, err := range tg.router.Query(ctx, q3) {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	ask()
	if plan := tg.router.Explain(q3); plan.Strategy != "memo" || n < 300 {
		t.Fatalf("%d descendants, planned as %s", n, plan)
	}
	if allocs := testing.AllocsPerRun(50, ask); allocs > 40 {
		t.Errorf("a remembered answer of %d entries cost %.0f allocations", n, allocs)
	}
}

// BenchmarkRouterWarmQuery: the repeat the router exists to make cheap — one
// question per regime (fan-in, native rounds or member graphs by
// architecture, member graphs),
// asked again of an unchanged 4-shard namespace and drained. Every answer is
// remembered under the composite stamp, so an iteration samples four member
// stamps per question and must meter nothing.
func BenchmarkRouterWarmQuery(b *testing.B) {
	ctx := context.Background()
	tg := buildTarget(b, "s3", 4, 53, false)
	for _, batch := range captureBatches(b) {
		if err := tg.store.PutBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	queries := []prov.Query{
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
		prov.QDescendantsOfOutputs("blast"),
		ancestorsOfMean,
	}
	round := func() (n int) {
		for _, q := range queries {
			for _, err := range tg.router.Query(ctx, q) {
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
		return n
	}
	if round() == 0 {
		b.Fatal("the warm-up round matched nothing")
	}
	before := tg.totalOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if ops := tg.totalOps() - before; ops != 0 {
		b.Fatalf("%d warm rounds metered %d cloud ops", b.N, ops)
	}
}

// BenchmarkRouterColdQuery: the round a write leaves cold. Each iteration
// writes one file into a 4-shard S3 namespace whose members cache, then asks
// Q.2, Q.3, a pinned ancestor walk and an ancestor walk from every file — all
// answered by rounds on the member graphs, which every question asks each
// member for: the written member rebuilds or patches its snapshot once, and
// every other lookup is a snapshot hit. Every question's Explain must equal
// the ops it meters. The write comes from another client ("foreign": the
// written member rescans) or through the router ("own": the member patches
// its snapshot, and the round meters nothing). The multihop case asks Q.2,
// Q.3 and a pinned ancestor walk of 4 s3+sdb members after each write through
// the router: native rounds, their pinned ones routed to the refs' likely
// shards, each plan multihop and equal to the ops it meters; it reports the
// members' GetAttributes per iteration.
func BenchmarkRouterColdQuery(b *testing.B) {
	for _, writer := range []string{"foreign", "own"} {
		b.Run(writer, func(b *testing.B) {
			ctx := context.Background()
			tg := buildTarget(b, "s3", 4, 61, false)
			for _, batch := range captureBatches(b) {
				if err := tg.store.PutBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			queries := []prov.Query{
				prov.QOutputsOf("blast"),
				prov.QDescendantsOfOutputs("blast"),
				ancestorsOfMean,
				{Type: prov.TypeFile, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
			}
			// The router writes the file first, so the member's catalog counts
			// it and the foreign overwrites leave the plans' counts right.
			write := []pass.FlushEvent{writeEvent("/cold/w")}
			if err := tg.store.PutBatch(ctx, write); err != nil {
				b.Fatal(err)
			}
			via := tg.store
			if writer == "foreign" {
				other, err := s3only.New(s3only.Config{Cloud: tg.clouds[tg.router.ShardFor("/cold/w")], Writer: "other"})
				if err != nil {
					b.Fatal(err)
				}
				via = other
			}
			for _, q := range queries { // warm every member
				for _, err := range tg.router.Query(ctx, q) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if err := via.PutBatch(ctx, write); err != nil {
					b.Fatal(err)
				}
				start := tg.totalOps()
				for _, q := range queries {
					plan := tg.router.Explain(q)
					before := tg.totalOps()
					for _, err := range tg.router.Query(ctx, q) {
						if err != nil {
							b.Fatal(err)
						}
					}
					if ops := tg.totalOps() - before; ops != plan.EstOps || plan.Strategy != "union-graph" {
						b.Fatalf("iteration %d, %s: metered %d ops\n%s", i, q.Key(), ops, plan)
					}
				}
				if cold := tg.totalOps() != start; cold != (writer == "foreign") {
					b.Fatalf("iteration %d after a write from %s: cold = %v", i, writer, cold)
				}
			}
		})
	}
	b.Run("multihop", func(b *testing.B) {
		ctx := context.Background()
		tg := buildTarget(b, "s3+sdb", 4, 61, true)
		for _, batch := range captureBatches(b) {
			if err := tg.store.PutBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		queries := []prov.Query{
			prov.QOutputsOf("blast"),
			prov.QDescendantsOfOutputs("blast"),
			prov.QAncestors(prov.Ref{Object: "/res/mean", Version: 1}),
		}
		getAttributes := func() (n int64) {
			for _, cl := range tg.clouds {
				n += cl.Usage().OpCount(billing.SimpleDB, "GetAttributes")
			}
			return n
		}
		write := []pass.FlushEvent{writeEvent("/cold/w")}
		var gets int64
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if err := tg.store.PutBatch(ctx, write); err != nil {
				b.Fatal(err)
			}
			start := getAttributes()
			for _, q := range queries {
				plan := tg.router.Explain(q)
				before := tg.totalOps()
				for _, err := range tg.router.Query(ctx, q) {
					if err != nil {
						b.Fatal(err)
					}
				}
				if ops := tg.totalOps() - before; ops != plan.EstOps || plan.Strategy != "multihop" {
					b.Fatalf("iteration %d, %s: metered %d ops\n%s", i, q.Key(), ops, plan)
				}
			}
			gets += getAttributes() - start
		}
		b.ReportMetric(float64(gets)/float64(b.N), "getattrs/op")
	})
}

// TestOwnWriteColdRoundFlat: after this client's own write, a cold round of
// the benchmark's six query shapes on an S3-only ×4 router meters zero cloud
// ops at n and at 4n objects — the written member patches its snapshot with
// what it PUT instead of rescanning a store that grows.
func TestOwnWriteColdRoundFlat(t *testing.T) {
	ctx := context.Background()
	shapes := []prov.Query{
		{Refs: []prov.Ref{{Object: "/mean/new"}}},
		{Tool: "softmean", Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{Tool: "softmean", Type: prov.TypeFile, Projection: prov.ProjectRefs, Direction: prov.TraverseDescendants},
		{Refs: []prov.Ref{{Object: "/mean/new"}}, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
		{RefPrefix: "/data/", Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectRefs},
		{Type: prov.TypeProcess, Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "align_warp"}}, Limit: 100},
	}
	round := func(tg *target) {
		for _, q := range shapes {
			for _, err := range tg.router.Query(ctx, q) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	coldOps := func(n int) int64 {
		var members []*s3only.Store
		tg := buildWrapped(t, "s3", 4, 7, false, func(_ int, st shard.Store) shard.Store {
			members = append(members, st.(*s3only.Store))
			return st
		})
		sys := pass.NewSystem(pass.Config{Kernel: "2.6.23", Flush: core.Flusher(tg.store)})
		derive := func(tool, in, out string) {
			p := sys.Exec(nil, pass.ExecSpec{Name: tool, Argv: []string{tool, in}})
			for _, err := range []error{sys.Read(p, in), sys.Write(p, out, []byte(out), pass.Truncate), sys.Close(ctx, p, out)} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ {
			in := fmt.Sprintf("/data/in%d", i)
			if err := sys.Ingest(ctx, in, []byte(in)); err != nil {
				t.Fatal(err)
			}
			derive("align_warp", in, fmt.Sprintf("/warp/%d", i))
			derive("softmean", fmt.Sprintf("/warp/%d", i), fmt.Sprintf("/mean/%d", i))
		}
		round(tg) // warm every member
		derive("softmean", "/warp/0", "/mean/new")
		before := tg.totalOps()
		round(tg)
		var patches uint64
		for _, m := range members {
			patches += m.CacheStats().GraphPatches
		}
		if patches == 0 {
			t.Fatalf("n=%d: no member patched its snapshot", n)
		}
		return tg.totalOps() - before
	}
	if small, large := coldOps(40), coldOps(160); small != 0 || large != 0 {
		t.Fatalf("a cold round after an own write meters %d ops at %d objects and %d at %d; want 0 at both", small, 3*40, large, 3*160)
	}
}

// TestOwnWriteColdRoundWorkFlat: the cold round after this client's own
// write does work that follows its answers, not the store. The store grows
// from n to 4n filler derivations that none of the six shapes matches, so
// every answer keeps its size; the bytes a round allocates (the median of
// five rounds, each after one write) must stay within ×1.5. A round that
// copies a member's snapshot, or scans every subject for an attribute,
// allocates or walks in proportion to the store.
func TestOwnWriteColdRoundWorkFlat(t *testing.T) {
	ctx := context.Background()
	shapes := []prov.Query{
		{Refs: []prov.Ref{{Object: "/mean/new"}}},
		{Tool: "softmean", Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{Tool: "softmean", Type: prov.TypeFile, Projection: prov.ProjectRefs, Direction: prov.TraverseDescendants},
		{Refs: []prov.Ref{{Object: "/mean/new"}}, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
		{RefPrefix: "/data/", Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectRefs},
		{Type: prov.TypeProcess, Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "align_warp"}}, Limit: 100},
	}
	round := func(tg *target) int {
		n := 0
		for _, q := range shapes {
			for _, err := range tg.router.Query(ctx, q) {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		return n
	}
	// roundBytes returns the median bytes a cold round allocates after one
	// own write, and how many entries the last round answered.
	roundBytes := func(fillers int) (uint64, int) {
		tg := buildWrapped(t, "s3", 4, 7, false, func(_ int, st shard.Store) shard.Store { return st })
		sys := pass.NewSystem(pass.Config{Kernel: "2.6.23", Flush: core.Flusher(tg.store)})
		derive := func(tool, in, out string) {
			p := sys.Exec(nil, pass.ExecSpec{Name: tool, Argv: []string{tool, in}})
			for _, err := range []error{sys.Read(p, in), sys.Write(p, out, []byte(out), pass.Truncate), sys.Close(ctx, p, out)} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		ingest := func(path string) {
			if err := sys.Ingest(ctx, path, []byte(path)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			ingest(fmt.Sprintf("/data/in%d", i))
			derive("align_warp", fmt.Sprintf("/data/in%d", i), fmt.Sprintf("/warp/%d", i))
			derive("softmean", fmt.Sprintf("/warp/%d", i), fmt.Sprintf("/mean/%d", i))
		}
		for i := 0; i < fillers; i++ {
			ingest(fmt.Sprintf("/fill/in%d", i))
			derive("gzip", fmt.Sprintf("/fill/in%d", i), fmt.Sprintf("/fill/out%d", i))
		}
		round(tg) // warm every member
		var bytes []uint64
		answered := 0
		for rep := 0; rep < 5; rep++ {
			derive("softmean", "/warp/0", "/mean/new")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			answered = round(tg)
			runtime.ReadMemStats(&after)
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(bytes)
		return bytes[len(bytes)/2], answered
	}
	small, smallAnswers := roundBytes(400)
	large, largeAnswers := roundBytes(1600)
	if smallAnswers != largeAnswers {
		t.Fatalf("the fillers changed the answers: %d entries at n, %d at 4n", smallAnswers, largeAnswers)
	}
	t.Logf("a cold round allocates %d B at n, %d B at 4n", small, large)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("a cold round after an own write allocates %d B at n filler derivations and %d B at 4n; want within ×1.5", small, large)
	}
}
