package shard_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// canonicalEntries renders an evaluated entry slice in the same
// comparison form canonical() renders a query stream, so router answers
// can be checked against core.EvalQuery oracle output.
func canonicalEntries(entries []core.Entry) string {
	byRef := make(map[prov.Ref][]string)
	var refs []prov.Ref
	for _, e := range entries {
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

// writeEvent builds a minimal one-file flush event for cache-invalidation
// probes.
func writeEvent(obj prov.ObjectID) pass.FlushEvent {
	ref := prov.Ref{Object: obj, Version: 1}
	return pass.FlushEvent{
		Ref:  ref,
		Type: prov.TypeFile,
		Data: []byte("x"),
		Records: []prov.Record{
			{Subject: ref, Attr: prov.AttrType, Value: prov.StringValue(prov.TypeFile)},
			{Subject: ref, Attr: prov.AttrName, Value: prov.StringValue(string(obj))},
		},
	}
}

// TestMultihopIndexedPlans: on members that plan references client-side
// (SimpleDB-backed), Q.2/Q.3-class descriptors must take the distributed
// multi-hop strategy with indexed rounds — no step of any round may be a
// repository Select scan (the member-graph path's per-shard Q.1 marker). The
// op/$ improvement over the scan floor is a scale property and is gated
// at workload scale by the sharded cost matrix (internal/cost) and
// benchdiff; this test pins the plan shape.
func TestMultihopIndexedPlans(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)

	multihopQueries := []prov.Query{
		prov.QOutputsOf("blast"),            // Q.2 class
		prov.QDescendantsOfOutputs("blast"), // Q.3 class
		{Tool: "softmean", Type: prov.TypeFile, Direction: prov.TraverseDescendants, Depth: 2, Projection: prov.ProjectRefs},
		{Refs: []prov.Ref{{Object: "/res/mean", Version: 1}}, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
	}

	t.Run("s3+sdb", func(t *testing.T) {
		tg := buildTarget(t, "s3+sdb", 4, 23, true)
		replay(t, ctx, tg, batches)
		for i, q := range multihopQueries {
			plan := tg.router.Explain(q)
			if plan.Strategy != "multihop" {
				t.Fatalf("query %d (%s): strategy %q, want multihop\n%s", i, q.Key(), plan.Strategy, plan)
			}
			if plan.EstOps <= 0 {
				t.Errorf("query %d (%s): empty plan\n%s", i, q.Key(), plan)
			}
			for _, st := range plan.Steps {
				if st.Op == "Select" {
					t.Errorf("query %d (%s): multihop plan contains a Select scan step\n%s", i, q.Key(), plan)
				}
			}
		}
	})

	t.Run("s3-keeps-parts", func(t *testing.T) {
		tg := buildTarget(t, "s3", 4, 23, true)
		replay(t, ctx, tg, batches)
		plan := tg.router.Explain(prov.QDescendantsOfOutputs("blast"))
		if plan.Strategy != "union-graph" {
			t.Fatalf("members without RefPlanner must answer rounds on their graphs, got %q", plan.Strategy)
		}
	})
}

// TestRouterKeepsNoMemberGraphs: the router keeps no member graph of its own;
// each member's snapshot is the one graph cache. A question repeated on an
// unchanged namespace is answered from the router's result memo — zero cloud
// ops and not one call to a member. A second question at the same stamp asks
// every member for its graph: uncached members pay their Q.1 again, caching
// members answer from their snapshots at zero ops. After one write only the
// written member rebuilds or patches, and the answer is fresh. Explain
// predicts what is metered, each time.
func TestRouterKeepsNoMemberGraphs(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	anc, q3 := ancestorsOfMean, prov.QDescendantsOfOutputs("blast")

	// run answers q, checks Explain's prediction against the meters, and
	// returns the plan, the answer, and the ops and member calls it cost.
	run := func(t *testing.T, tg *target, members []*probedMember, q prov.Query) (core.QueryPlan, []prov.Ref, int64, int64) {
		t.Helper()
		plan := tg.router.Explain(q)
		ops, asked := tg.totalOps(), calls(members)
		refs, err := core.CollectRefs(tg.router.Query(ctx, q))
		if err != nil {
			t.Fatal(err)
		}
		ops, asked = tg.totalOps()-ops, calls(members)-asked
		if plan.EstOps != ops || plan.Cached != (ops == 0) {
			t.Fatalf("%s: predicted %d ops (cached=%v), metered %d\n%s", q.Key(), plan.EstOps, plan.Cached, ops, plan)
		}
		return plan, refs, ops, asked
	}
	// start answers anc cold, then again from the memo.
	start := func(t *testing.T, tg *target, members []*probedMember) int64 {
		t.Helper()
		plan, _, cold, _ := run(t, tg, members, anc)
		if cold <= 0 || plan.Strategy != "union-graph" {
			t.Fatalf("cold member-graph query metered %d ops as %s, want > 0", cold, plan)
		}
		if plan, _, warm, asked := run(t, tg, members, anc); warm != 0 || asked != 0 || plan.Strategy != "memo" {
			t.Fatalf("repeated query on an unchanged namespace: %d ops, %d member calls, planned as %s", warm, asked, plan)
		}
		return cold
	}

	t.Run("uncached", func(t *testing.T) {
		tg, members := probed(t, "s3", 4, 29, true)
		replay(t, ctx, tg, batches)
		cold := start(t, tg, members)
		// Another question at the same stamp: every member scans again.
		plan, _, ops, asked := run(t, tg, members, q3)
		if ops != cold || asked != int64(len(members)) || plan.Strategy != "union-graph" {
			t.Fatalf("second question on uncached members: %d ops (want %d, each member's Q.1), %d member calls, planned as %s", ops, cold, asked, plan)
		}
	})

	t.Run("cached", func(t *testing.T) {
		tg, members := probed(t, "s3", 4, 29, false)
		replay(t, ctx, tg, batches)
		start(t, tg, members)
		plan, before, ops, asked := run(t, tg, members, q3)
		if ops != 0 || asked != int64(len(members)) || plan.Strategy != "union-graph" {
			t.Fatalf("second question on caching members: %d ops, %d member calls, planned as %s", ops, asked, plan)
		}

		// One write — a new descendant of blast's outputs — and only the
		// written member rebuilds its snapshot; nothing remembered survives.
		outputs, err := core.CollectRefs(tg.router.Query(ctx, prov.QOutputsOf("blast")))
		if err != nil || len(outputs) == 0 {
			t.Fatalf("outputs of blast: %v, %v", outputs, err)
		}
		late := derivedFile("/post/members", outputs[0])
		hot := tg.router.ShardFor(late.Ref.Object)
		if err := tg.store.PutBatch(ctx, []pass.FlushEvent{late}); err != nil {
			t.Fatal(err)
		}
		rebuilds := func() []uint64 {
			n := make([]uint64, len(members))
			for i, m := range members {
				st := m.Store.(*s3only.Store).CacheStats()
				n[i] = st.GraphMisses + st.GraphPatches
			}
			return n
		}
		perShardOps := func() []int64 {
			n := make([]int64, len(tg.clouds))
			for i, cl := range tg.clouds {
				n[i] = cl.Usage().TotalOps()
			}
			return n
		}
		built, metered := rebuilds(), perShardOps()
		_, after, _, _ := run(t, tg, members, q3)
		if len(after) != len(before)+1 || !slices.Contains(after, late.Ref) {
			t.Errorf("answer after the write is not fresh: %v, was %v", after, before)
		}
		builtAfter, meteredAfter := rebuilds(), perShardOps()
		for i := range members {
			want := uint64(0)
			if i == hot {
				want = 1
			}
			if builtAfter[i]-built[i] != want {
				t.Errorf("shard %d: %d snapshot builds after a write to shard %d, want %d", i, builtAfter[i]-built[i], hot, want)
			}
			if i != hot && meteredAfter[i] != metered[i] {
				t.Errorf("unwritten shard %d metered %d ops after a write to shard %d", i, meteredAfter[i]-metered[i], hot)
			}
		}
	})
}

// TestExplainReevalLabel: a cursor whose pin was evicted at an unchanged
// generation re-evaluates; its plan's strategy must carry the
// "pinned-reeval/" prefix so passctl output is unambiguous about which
// path ran.
func TestExplainReevalLabel(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	tg := buildTarget(t, "s3+sdb", 4, 31, false)
	replay(t, ctx, tg, batches)

	paged := prov.QDescendantsOfOutputs("blast")
	paged.Limit = 1
	_, cursor := collectPage(t, ctx, tg.querier(), paged)
	if cursor == "" {
		t.Fatal("expected a truncated first page")
	}

	// Evict the pin: the pin pool holds a bounded number of evaluations,
	// so enough distinct paginated descriptors push the first one out.
	for i := 0; i < 12; i++ {
		evict := prov.Query{RefPrefix: fmt.Sprintf("/data/in%d", i%6), Type: prov.TypeFile, Projection: prov.ProjectRefs, Limit: 1}
		if i >= 6 {
			evict.RefPrefix = fmt.Sprintf("/out/blast%d", i%6)
		}
		collectPage(t, ctx, tg.querier(), evict)
	}

	resume := paged
	resume.Cursor = cursor
	plan := tg.router.Explain(resume)
	if !strings.HasPrefix(plan.Strategy, "pinned-reeval/") {
		t.Fatalf("evicted-cursor plan strategy %q lacks the pinned-reeval/ prefix\n%s", plan.Strategy, plan)
	}
	fresh := tg.router.Explain(paged)
	if plan.Strategy == fresh.Strategy {
		t.Fatalf("re-evaluation plan indistinguishable from a fresh query's (%q)", fresh.Strategy)
	}
}

// TestMultihopRandomizedOracle is the cross-shard equivalence oracle: a
// seeded generator drives descriptors — multi-hop traversals included —
// through routers of every architecture at 1/4/16 shards, and every
// answer must match core.EvalQuery on the unsharded store's graph. A final phase
// checks pinned-cursor stability: a page sequence started before a
// mid-traversal write must return exactly the pre-write evaluation.
func TestMultihopRandomizedOracle(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)

	tools := []string{"blast", "sort", "softmean", "missing"}
	types := []string{prov.TypeFile, prov.TypeProcess, ""}
	// "/out/blast0:", "/res/mean:" and "proc/1/blast:" seed on objects with
	// two chained versions: the later one is reached again as a dependent.
	prefixes := []string{"", "/out/", "/data/", "/res/mean:", "/out/blast0:", "proc/1/blast:", "/nope/"}
	attrPool := []prov.AttrFilter{
		{Attr: prov.AttrType, Value: prov.TypeFile},
		{Attr: prov.AttrName, Value: "/out/blast0"},
		{Attr: prov.AttrName, Value: "blast"},
		{Attr: prov.AttrName, Value: "missing"},
	}
	refPool := []prov.Ref{
		{Object: "/out/blast0", Version: 0}, {Object: "/out/blast0", Version: 1}, {Object: "/out/blast0", Version: 2},
		{Object: "/res/mean", Version: 1}, {Object: "/res/mean", Version: 2},
		{Object: "/data/in2", Version: 1}, {Object: "/ghost", Version: 7},
	}

	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/x%d", arch, shards), func(t *testing.T) {
				flat := buildTarget(t, arch, 1, 2027, false)
				sharded := buildTarget(t, arch, shards, 2027, false)
				replay(t, ctx, flat, batches)
				replay(t, ctx, sharded, batches)
				g, err := core.ProvenanceGraph(ctx, flat.querier())
				if err != nil {
					t.Fatal(err)
				}

				rng := sim.NewRNG(int64(7001 + shards))
				randomQuery := func() prov.Query {
					q := prov.Query{}
					// One descriptor in four is the tool section under a prefix
					// and attribute filters: the router cuts the candidates to
					// the prefix before its filter round, the store after.
					corner := rng.Intn(4) == 0
					if corner || rng.Intn(3) == 0 {
						q.Tool = tools[rng.Intn(len(tools))]
					}
					q.Type = types[rng.Intn(len(types))]
					if corner || rng.Intn(3) == 0 {
						q.Attrs = append(q.Attrs, attrPool[rng.Intn(len(attrPool))])
					}
					if corner {
						q.RefPrefix = prefixes[1+rng.Intn(len(prefixes)-1)]
					} else {
						q.RefPrefix = prefixes[rng.Intn(len(prefixes))]
						if rng.Intn(3) == 0 {
							n := 1 + rng.Intn(2)
							for i := 0; i < n; i++ {
								q.Refs = append(q.Refs, refPool[rng.Intn(len(refPool))])
							}
						}
					}
					switch rng.Intn(3) {
					case 1:
						q.Direction = prov.TraverseDescendants
					case 2:
						q.Direction = prov.TraverseAncestors
					}
					if q.Direction != prov.TraverseNone {
						q.Depth = rng.Intn(4)
						q.IncludeSeeds = rng.Intn(2) == 0
					}
					if rng.Intn(2) == 0 {
						q.Projection = prov.ProjectRefs
					}
					return q
				}

				for i := 0; i < 40; i++ {
					q := randomQuery()
					if q.Validate() != nil {
						continue
					}
					want := canonicalEntries(core.EvalQuery(g, q))
					got := canonical(t, ctx, sharded.querier(), q)
					if want != got {
						t.Fatalf("random query %d (%s):\noracle:\n%s\nsharded:\n%s", i, q.Key(), want, got)
					}
				}

				// Mid-traversal write under a pinned cursor: the page
				// sequence must serve the pre-write evaluation, while the
				// write lands normally for fresh queries.
				paged := prov.QDescendantsOfOutputs("blast")
				paged.Limit = 2
				stripped := paged
				stripped.Limit = 0
				var wantRefs []prov.Ref
				for _, e := range core.EvalQuery(g, stripped) {
					wantRefs = append(wantRefs, e.Ref)
				}
				got, cursor := collectPage(t, ctx, sharded.querier(), paged)
				if err := sharded.store.PutBatch(ctx, []pass.FlushEvent{writeEvent("/mid/write")}); err != nil {
					t.Fatal(err)
				}
				for cursor != "" {
					next := paged
					next.Cursor = cursor
					var page []prov.Ref
					page, cursor = collectPage(t, ctx, sharded.querier(), next)
					got = append(got, page...)
				}
				if fmt.Sprint(got) != fmt.Sprint(wantRefs) {
					t.Fatalf("pinned page sequence diverged from the pre-write evaluation:\ngot:  %v\nwant: %v", got, wantRefs)
				}
			})
		}
	}
}

// TestAncestorPlanSeesSpilledInputs is the router half of the layer's test
// of the same name: a subject with 300 inputs spills 46 of them past the
// 256-attribute item limit, where neither the backend's index nor the
// members' catalog indexes see them — but the inputs-of-refs round fetches
// and decodes the whole item, so the live frontier has all 300 and the plan
// (core.RefPlanner) must predict all 300, or its next round probes too few.
func TestAncestorPlanSeesSpilledInputs(t *testing.T) {
	ctx := context.Background()
	tg := buildTarget(t, "s3+sdb", 2, 7, true)
	subject := prov.Ref{Object: "/wide", Version: 1}
	wide := writeEvent(subject.Object)
	var batch []pass.FlushEvent
	for i := 0; i < 300; i++ {
		in := writeEvent(prov.ObjectID(fmt.Sprintf("/in/%03d", i)))
		batch = append(batch, in)
		wide.Records = append(wide.Records, prov.NewInput(subject, in.Ref))
	}
	if err := tg.store.PutBatch(ctx, append(batch, wide)); err != nil {
		t.Fatal(err)
	}
	q := prov.QAncestors(subject)
	plan := tg.router.Explain(q)
	before := tg.totalOps()
	refs, err := core.CollectRefs(tg.router.Query(ctx, q))
	if err != nil {
		t.Fatal(err)
	}
	metered := tg.totalOps() - before
	if len(refs) != 300 {
		t.Fatalf("walk reached %d of 300 inputs", len(refs))
	}
	if plan.Strategy != "multihop" || !plan.Exact || plan.EstOps != metered {
		t.Errorf("router predicted %d ops (exact=%v), metered %d\n%s", plan.EstOps, plan.Exact, metered, plan)
	}
}

// TestPlanSaysWhenAnOverflowMatchIsUndecided: a pinned ref under a filter
// value past the overflow threshold is matched by the run on decoded records,
// while SimpleDB's planner catalog holds that value as an S3 pointer it
// cannot compare. On one store and through a 4-shard router the plan must
// then predict the run — refs and metered ops — or stop claiming exactness.
func TestPlanSaysWhenAnOverflowMatchIsUndecided(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)
	filter := []prov.AttrFilter{{Attr: prov.AttrEnv, Value: blastEnv}}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d shards", n), func(t *testing.T) {
			tg := buildTarget(t, "s3+sdb", n, 71, true)
			replay(t, ctx, tg, batches)
			blast, err := core.CollectRefs(tg.querier().Query(ctx, prov.Query{Attrs: filter, Projection: prov.ProjectRefs}))
			if err != nil || len(blast) == 0 {
				t.Fatalf("the blast process with the long environment: %v, %v", blast, err)
			}
			for name, q := range map[string]prov.Query{
				"pinned":              {Refs: blast, Attrs: filter, Projection: prov.ProjectRefs},
				"ancestors of pinned": {Refs: blast, Attrs: filter, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs},
			} {
				plan := tg.querier().Explain(q)
				before := tg.totalOps()
				refs, err := core.CollectRefs(tg.querier().Query(ctx, q))
				if err != nil || len(refs) == 0 {
					t.Fatalf("%s: the run matched nothing: %v", name, err)
				}
				if metered := tg.totalOps() - before; plan.Exact && plan.EstOps != metered {
					t.Errorf("%s: an exact plan predicted %d ops, the run metered %d\n%s", name, plan.EstOps, metered, plan)
				}
				if rp, ok := tg.querier().(core.RefPlanner); ok {
					if planned, ok := rp.PlanQueryRefs(q); ok && !slices.Equal(planned, refs) {
						t.Errorf("%s: PlanQueryRefs = %v, ok; the run returned %v", name, planned, refs)
					}
				}
			}
		})
	}
}
