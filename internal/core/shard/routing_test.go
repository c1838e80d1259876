package shard_test

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// pinLog records, per ref, the shards a router asked for it by name: every
// member query with pinned refs and no traversal — a fetch or a filter.
type pinLog struct {
	mu    sync.Mutex
	asked map[prov.Ref]map[int]bool
}

func (l *pinLog) reset() {
	l.mu.Lock()
	l.asked = make(map[prov.Ref]map[int]bool)
	l.mu.Unlock()
}

func (l *pinLog) note(i int, refs []prov.Ref) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ref := range refs {
		if l.asked[ref] == nil {
			l.asked[ref] = make(map[int]bool)
		}
		l.asked[ref][i] = true
	}
}

// pinLogged wraps a member that plans references, logging its pinned
// queries; it stays a core.RefPlanner, so the router keeps its native rounds.
type pinLogged struct {
	shard.Store
	i   int
	log *pinLog
}

func (m *pinLogged) PlanQueryRefs(q prov.Query) ([]prov.Ref, bool) {
	return m.Store.(core.RefPlanner).PlanQueryRefs(q)
}

func (m *pinLogged) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	if len(q.Refs) > 0 && q.Direction == prov.TraverseNone {
		m.log.note(m.i, q.Refs)
	}
	return m.Store.Query(ctx, q)
}

// pinLoggedTarget builds an n-shard router whose members log their pinned
// queries into the returned log.
func pinLoggedTarget(t *testing.T, arch string, n int, seed int64) (*target, *pinLog) {
	t.Helper()
	log := &pinLog{}
	log.reset()
	tg := buildWrapped(t, arch, n, seed, true, func(i int, st shard.Store) shard.Store {
		return &pinLogged{Store: st, i: i, log: log}
	})
	return tg, log
}

// meteredMatch answers q through the router and fails unless it took the
// multi-hop strategy, Explain predicted the metered ops exactly and the
// answer is want. It returns the plan.
func meteredMatch(t *testing.T, ctx context.Context, tg *target, q prov.Query, want string) core.QueryPlan {
	t.Helper()
	plan := tg.router.Explain(q)
	if plan.Strategy != "multihop" || !plan.Exact {
		t.Fatalf("%s: planned as %q (exact=%v), want an exact multihop plan\n%s", q.Key(), plan.Strategy, plan.Exact, plan)
	}
	before := tg.totalOps()
	got := canonical(t, ctx, tg.querier(), q)
	if metered := tg.totalOps() - before; metered != plan.EstOps {
		t.Errorf("%s: predicted %d ops, metered %d\n%s", q.Key(), plan.EstOps, metered, plan)
	}
	if got != want {
		t.Errorf("%s: the router's answer differs from the store's\nstore:\n%s\nrouter:\n%s", q.Key(), want, got)
	}
	return plan
}

// TestPinnedRoundsAskLikelyShards: a round that names its refs — the
// ancestor walk's frontier fetch, the filter round of Q.2 inside Q.3 — asks
// each ref only on its home shard and the shard the traversal learned it on,
// never on every shard. Every ref these questions reach is found in that
// first round, so none is asked on more than two shards; the answers equal
// the one-shard store's, and Explain predicts the metered ops. (The walk from
// sorted0 reaches no process version named only by its next version — a
// version rides its own carrier, which that edge does not say; such a ref
// takes the second round.)
func TestPinnedRoundsAskLikelyShards(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	sorted := prov.Ref{Object: "/res/sorted0", Version: 0}
	queries := []prov.Query{
		prov.QAncestors(sorted),
		{Refs: []prov.Ref{sorted}, Direction: prov.TraverseAncestors, Projection: prov.ProjectFull},
		prov.QDescendantsOfOutputs("blast"),
	}
	for _, arch := range []string{"s3+sdb", "s3+sdb+sqs"} {
		t.Run(arch, func(t *testing.T) {
			flat := buildTarget(t, arch, 1, 83, true)
			tg, log := pinLoggedTarget(t, arch, 4, 83)
			replay(t, ctx, flat, batches)
			replay(t, ctx, tg, batches)
			for _, q := range queries {
				log.reset()
				meteredMatch(t, ctx, tg, q, canonical(t, ctx, flat.querier(), q))
				held := 0
				for ref, shards := range log.asked {
					if _, err := flat.store.Provenance(ctx, ref); err != nil {
						continue // a ref no shard holds is asked everywhere
					}
					if held++; len(shards) > 2 {
						t.Errorf("%s: %s asked on %d shards, want its home shard and at most one more", q.Key(), ref, len(shards))
					}
				}
				if held < 3 {
					t.Errorf("%s: rounds named %d held refs, want a walk of several", q.Key(), held)
				}
			}
		})
	}
}

// processEvent is a flush event for a transient process version listing
// inputs.
func processEvent(obj prov.ObjectID, name string, inputs ...prov.Ref) pass.FlushEvent {
	ref := prov.Ref{Object: obj, Version: 1}
	ev := pass.FlushEvent{Ref: ref, Type: prov.TypeProcess, Records: []prov.Record{
		{Subject: ref, Attr: prov.AttrType, Value: prov.StringValue(prov.TypeProcess)},
		{Subject: ref, Attr: prov.AttrName, Value: prov.StringValue(name)},
	}}
	for _, in := range inputs {
		ev.Records = append(ev.Records, prov.NewInput(ref, in))
	}
	return ev
}

// TestSecondRoundFindsMisplacedTransient: a transient lands where neither
// its home shard nor the edge that names it points — here a trailing
// transient, which follows its batch's last file. Its first fetch round
// misses, the second asks the remaining shards and finds it; the answer
// equals the one-shard store's, and Explain predicts the second round and
// its ops.
func TestSecondRoundFindsMisplacedTransient(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []string{"s3+sdb", "s3+sdb+sqs"} {
		t.Run(arch, func(t *testing.T) {
			flat := buildTarget(t, arch, 1, 89, true)
			tg := buildTarget(t, arch, 4, 89, true)
			// Names such that the carrier F lands on neither the namer G's
			// shard nor the process's home.
			var g, f, p prov.ObjectID
			for k := 0; ; k++ {
				g, f, p = prov.ObjectID(fmt.Sprintf("/late/g%d", k)), prov.ObjectID(fmt.Sprintf("/late/f%d", k)), prov.ObjectID(fmt.Sprintf("proc/late/%d", k))
				carrier := tg.router.ShardFor(f)
				if carrier != tg.router.ShardFor(g) && carrier != tg.router.ShardFor(p) {
					break
				}
			}
			h := writeEvent("/late/h")
			proc := processEvent(p, "misplaced", h.Ref)
			batches := [][]pass.FlushEvent{
				{h},
				{derivedFile(g, proc.Ref), writeEvent(f), proc},
			}
			replay(t, ctx, flat, batches)
			replay(t, ctx, tg, batches)

			gRef := prov.Ref{Object: g, Version: 1}
			for _, q := range []prov.Query{
				prov.QAncestors(gRef),
				{Refs: []prov.Ref{gRef}, Direction: prov.TraverseAncestors, Projection: prov.ProjectFull},
				// The filter round of the seeds: the process on its home shard first.
				{Refs: []prov.Ref{proc.Ref}, Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: "misplaced"}}, Direction: prov.TraverseAncestors, IncludeSeeds: true, Projection: prov.ProjectFull},
			} {
				// Every answer holds h, which only the misplaced process names.
				want := canonical(t, ctx, flat.querier(), q)
				if !strings.Contains(want, h.Ref.String()) {
					t.Fatalf("%s: the store's answer lacks %s:\n%s", q.Key(), h.Ref, want)
				}
				plan := meteredMatch(t, ctx, tg, q, want)
				if !strings.Contains(plan.String(), "second round") {
					t.Errorf("%s: the plan has no second round\n%s", q.Key(), plan)
				}
			}
		})
	}
}

// TestMultihopAnswersAcrossMigration holds the native rounds on SimpleDB
// members to the one-shard store's answers at three points of a migration:
// the window open, the arc copied to the destination, the ring flipped. Each
// round must read the authoritative copy of a moving subject, and only it.
func TestMultihopAnswersAcrossMigration(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	mean := prov.Ref{Object: "/res/mean", Version: 1}
	queries := []prov.Query{
		prov.QAncestors(mean),
		{Refs: []prov.Ref{mean}, Direction: prov.TraverseAncestors, Projection: prov.ProjectFull},
		prov.QOutputsOf("blast"),
		prov.QDescendantsOfOutputs("blast"),
		{Tool: "softmean", Type: prov.TypeFile, Direction: prov.TraverseDescendants, Depth: 2, Projection: prov.ProjectRefs},
	}
	for _, arch := range []string{"s3+sdb", "s3+sdb+sqs"} {
		t.Run(arch, func(t *testing.T) {
			flat := buildTarget(t, arch, 1, 97, true)
			tg := buildTarget(t, arch, 4, 97, true)
			replay(t, ctx, flat, batches)
			replay(t, ctx, tg, batches)
			want := make([]string, len(queries))
			for i, q := range queries {
				want[i] = canonical(t, ctx, flat.querier(), q)
			}
			check := func(when string) {
				t.Helper()
				for i, q := range queries {
					if got := canonical(t, ctx, tg.querier(), q); got != want[i] {
						t.Errorf("%s: %s differs from the store's answer\nstore:\n%s\nrouter:\n%s", when, q.Key(), want[i], got)
					}
				}
			}
			check("idle")

			ctrl, err := reshard.New(reshard.Config{Router: tg.router, Clouds: tg.clouds})
			if err != nil {
				t.Fatal(err)
			}
			var plan *reshard.Plan
			var exp *core.ArcExport
			var src, dst core.Migrator
			for from := 0; exp == nil || len(exp.Subjects) == 0; from++ {
				if from == tg.router.NumShards() {
					t.Fatal("no split of this workload moves a subject")
				}
				if plan, err = ctrl.PlanSplit(from, (from+1)%tg.router.NumShards()); err != nil {
					t.Fatal(err)
				}
				src, dst = tg.router.Shard(plan.Src).(core.Migrator), tg.router.Shard(plan.Dst).(core.Migrator)
				if exp, err = src.ExportArc(ctx, plan.Moved(ctrl)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tg.router.BeginMigration(plan.Src, plan.Dst, exp.Subjects); err != nil {
				t.Fatal(err)
			}
			check("window open")
			if err := dst.ImportArc(ctx, exp); err != nil {
				t.Fatal(err)
			}
			check("arc copied")
			if err := tg.router.FlipRing(plan.Target); err != nil {
				t.Fatal(err)
			}
			check("ring flipped")
			if _, err := src.RemoveArc(ctx, plan.Moved(ctrl)); err != nil {
				t.Fatal(err)
			}
			tg.router.EndMigration()
			check("ended")
		})
	}
}
