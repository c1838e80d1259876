package cost

import (
	"context"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

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
		for _, tc := range queries {
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
		// Warm the snapshot and the Q.2 memo.
		if _, err := core.CollectBySubject(q.Query(ctx, prov.Q1())); err != nil {
			t.Fatal(err)
		}
		if _, err := core.CollectRefs(q.Query(ctx, prov.QOutputsOf("softmean"))); err != nil {
			t.Fatal(err)
		}
		for _, desc := range []prov.Query{prov.Q1(), prov.QOutputsOf("softmean")} {
			plan := q.Explain(desc)
			if !plan.Cached || plan.EstOps != 0 {
				t.Errorf("%s: warm plan not cached/zero: cached=%v est=%d\n%s", arch, plan.Cached, plan.EstOps, plan)
			}
			before := run.Usage().TotalOps()
			if _, err := core.CollectEntries(q.Query(ctx, desc)); err != nil {
				t.Fatal(err)
			}
			if d := run.Usage().TotalOps() - before; d != 0 {
				t.Errorf("%s: warm query cost %d ops", arch, d)
			}
		}
	}
}
