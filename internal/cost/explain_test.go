package cost

import (
	"context"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// ancestorQueries are the ancestor-walk shapes the planner must cost
// honestly: prov.QAncestors of a Challenge graphic, the same walk under full
// projection, and replay's extraction shape — many pinned targets,
// IncludeSeeds, full projection, paginated.
func ancestorQueries(ctx context.Context, t *testing.T, q core.Querier) []struct {
	name string
	q    prov.Query
} {
	t.Helper()
	targets, err := currentFileVersions(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var graphic prov.Ref
	for _, r := range targets {
		if r.Object == "/fmri/run0000/atlas_x.gif" {
			graphic = r
		}
	}
	if graphic.Object == "" || len(targets) < 20 {
		t.Fatalf("workload has no Challenge graphic among its %d file versions", len(targets))
	}
	full := prov.QAncestors(graphic)
	full.Projection = prov.ProjectFull
	return []struct {
		name string
		q    prov.Query
	}{
		{"Ancestors", prov.QAncestors(graphic)},
		{"AncestorsFull", full},
		{"ReplayExtract", prov.Query{Refs: targets[:20], Direction: prov.TraverseAncestors,
			IncludeSeeds: true, Projection: prov.ProjectFull, Limit: 50}},
	}
}

// TestExplainMatchesMeteredOps is the planner's honesty check: on the
// uncached path (the paper-faithful Table 3 configuration), Explain's
// predicted operation count for each query class must equal the ops the
// billing meters record when the query actually runs. The harness is a
// single-writer repository, so predictions are exact by design.
func TestExplainMatchesMeteredOps(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the combined workload")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.05}
	if err := h.Load(ctx); err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		name string
		q    prov.Query
	}{
		{"Q1", prov.Q1()},
		{"Q2", prov.QOutputsOf("softmean")},
		{"Q3", prov.QDescendantsOfOutputs("softmean")},
		{"Dependents", prov.QDependents("/challenge/j0/raw0.img")},
		{"AttrPushdown", prov.Query{Type: prov.TypeProcess, Projection: prov.ProjectRefs}},
		{"ToolRefPrefix", prov.Query{Tool: "softmean", RefPrefix: "/challenge/", Projection: prov.ProjectRefs}},
	}

	for _, arch := range []string{"s3", "s3+sdb"} {
		run := h.cells[arch]
		if run == nil {
			t.Fatalf("backend %s not loaded", arch)
		}
		q := run.Store
		for _, tc := range append(queries, ancestorQueries(ctx, t, q)...) {
			plan := q.Explain(tc.q)
			if !plan.Exact {
				t.Errorf("%s/%s: plan not exact on a single-writer repository", arch, tc.name)
			}
			if plan.Cached {
				t.Errorf("%s/%s: plan claims cached on the uncached path", arch, tc.name)
			}
			before := run.Usage().TotalOps()
			if _, err := core.CollectEntries(q.Query(ctx, tc.q)); err != nil {
				t.Fatalf("%s/%s: %v", arch, tc.name, err)
			}
			metered := run.Usage().TotalOps() - before
			if plan.EstOps != metered {
				t.Errorf("%s/%s: Explain predicted %d ops, meters recorded %d\nplan:\n%s",
					arch, tc.name, plan.EstOps, metered, plan)
			}
			if arch == "s3+sdb" && tc.q.Direction == prov.TraverseAncestors && plan.Strategy != "indexed-walk" {
				t.Errorf("%s/%s: strategy %q, want the indexed walk", arch, tc.name, plan.Strategy)
			}
		}
	}
}

// TestExplainCachedPath: with the snapshot cache on and warm, Explain must
// predict zero ops and the meters must agree.
func TestExplainCachedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the combined workload")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.05, CachedQueries: true}
	if err := h.Load(ctx); err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"s3", "s3+sdb"} {
		run := h.cells[arch]
		q := run.Store
		// metered runs desc and holds Explain, taken first, to what the run
		// meters; cached (or not) must say whether that was nothing.
		metered := func(what string, desc prov.Query) int64 {
			t.Helper()
			plan := q.Explain(desc)
			before := run.Usage().TotalOps()
			if _, err := core.CollectEntries(q.Query(ctx, desc)); err != nil {
				t.Fatal(err)
			}
			d := run.Usage().TotalOps() - before
			if plan.EstOps != d || plan.Cached != (d == 0) {
				t.Errorf("%s %s: predicted %d ops (cached=%v), metered %d\n%s", arch, what, plan.EstOps, plan.Cached, d, plan)
			}
			return d
		}
		warm := func(what string, descs ...prov.Query) {
			t.Helper()
			for _, desc := range descs {
				if d := metered(what, desc); d != 0 {
					t.Errorf("%s %s: warm query cost %d ops (%s)", arch, what, d, desc.Key())
				}
			}
		}
		anc := ancestorQueries(ctx, t, q)
		walk, walkFull, extract := anc[0].q, anc[1].q, anc[2].q

		// Cold, on SimpleDB nothing is resident and the walk pays; then its
		// items are, in the item memo. (On S3 listing the file versions
		// above already scanned, and the snapshot answers from the start.)
		if d := metered("cold", walk); d == 0 && arch == "s3+sdb" {
			t.Errorf("%s: cold ancestor walk cost nothing", arch)
		}
		warm("memo-warm", walk, walkFull)
		metered("cold", extract)
		warm("memo-warm", extract, walk, walkFull)

		// A write drops all of it; Q.1 then warms the snapshot (and Q.2 its
		// memo), and a repository warmed by Q.1 answers everything — the
		// ancestor shapes included — at zero ops.
		obj := prov.Ref{Object: "/explain/probe"}
		err := q.PutBatch(ctx, []pass.FlushEvent{{Ref: obj, Type: prov.TypeFile, Data: []byte("x"),
			Records: []prov.Record{prov.NewString(obj, prov.AttrType, prov.TypeFile)}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.CollectBySubject(q.Query(ctx, prov.Q1())); err != nil {
			t.Fatal(err)
		}
		if _, err := core.CollectRefs(q.Query(ctx, prov.QOutputsOf("softmean"))); err != nil {
			t.Fatal(err)
		}
		warm("snapshot-warm", prov.Q1(), prov.QOutputsOf("softmean"), walk, walkFull, extract)
	}
}
