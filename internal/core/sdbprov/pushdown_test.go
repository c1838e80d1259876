package sdbprov

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// This file is the pushdown oracle: randomized descriptors run through the
// layer's native SimpleDB plans AND through the shared in-memory evaluator
// (core.EvalQuery) over the same records. Any disagreement means the
// pushdown lies — including the quote-escaping and stored-form-encoding
// edge cases that motivated the oracle (a tool named "o'brien" or a value
// beginning with the pointer mark must match identically in both worlds).

// genRepo writes a deterministic pseudo-random repository into the layer
// and returns its decoded-record oracle graph.
func genRepo(t *testing.T, layer *Layer, rng *rand.Rand, n int) *prov.Graph {
	t.Helper()
	// Pools deliberately contain the hostile cases: single quotes (the
	// 2009 grammar's escape), doubled quotes, the pointer escape mark, and
	// names that collide as prefixes.
	names := []string{"blast", "bl'ast", "o''brien", "\x1emarked", "softmean", "align warp"}
	types := []string{prov.TypeFile, prov.TypeProcess, prov.TypePipe}
	attrs := []string{prov.AttrName, prov.AttrType, prov.AttrArgv, "custom", "we'ird attr"}
	objects := []string{"/data/a", "/data/ab", "/out/x", "proc/7/tool", "/d'q/o"}

	g := prov.NewGraph()
	var subjects []prov.Ref
	for i := 0; i < n; i++ {
		obj := objects[rng.Intn(len(objects))]
		subject := prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(i)}
		var records []prov.Record
		records = append(records,
			prov.NewString(subject, prov.AttrType, types[rng.Intn(len(types))]),
			prov.NewString(subject, prov.AttrName, names[rng.Intn(len(names))]))
		// Extra descriptive records, sometimes on quote-bearing attrs.
		for k := 0; k < rng.Intn(3); k++ {
			records = append(records,
				prov.NewString(subject, attrs[rng.Intn(len(attrs))], names[rng.Intn(len(names))]))
		}
		// Acyclic ancestry: inputs only reference earlier subjects — or,
		// now and then, a version that is never stored (a dangling input:
		// reached by an ancestor walk, fetched, found absent).
		for k := 0; k < rng.Intn(3) && len(subjects) > 0; k++ {
			records = append(records, prov.NewInput(subject, subjects[rng.Intn(len(subjects))]))
		}
		if rng.Intn(4) == 0 {
			ghost := prov.Ref{Object: prov.ObjectID(objects[rng.Intn(len(objects))]), Version: prov.Version(1000 + i)}
			records = append(records, prov.NewInput(subject, ghost))
		}
		if err := writeItem(context.Background(), layer, subject, records, ""); err != nil {
			t.Fatal(err)
		}
		g.AddAll(records)
		subjects = append(subjects, subject)
	}
	return g
}

// genQuery builds one pseudo-random descriptor over the same pools.
func genQuery(rng *rand.Rand) prov.Query {
	names := []string{"blast", "bl'ast", "o''brien", "\x1emarked", "softmean", "nosuch"}
	types := []string{"", prov.TypeFile, prov.TypeProcess}
	prefixes := []string{"", "/data/", "/data/a:", "/out/x:", "proc/"}
	q := prov.Query{Projection: prov.ProjectRefs}
	switch rng.Intn(4) {
	case 0:
		q.Tool = names[rng.Intn(len(names))]
		q.Type = types[rng.Intn(len(types))]
	case 1:
		q.Type = types[rng.Intn(len(types))]
		if rng.Intn(2) == 0 {
			q.Attrs = []prov.AttrFilter{{Attr: "custom", Value: names[rng.Intn(len(names))]}}
		}
	case 2:
		q.RefPrefix = prefixes[rng.Intn(len(prefixes))]
	case 3:
		q.Refs = []prov.Ref{
			{Object: "/data/a", Version: prov.Version(rng.Intn(30))},
			{Object: "/out/x", Version: prov.Version(rng.Intn(30))},
		}
		if rng.Intn(2) == 0 {
			q.Type = types[rng.Intn(len(types))]
		}
	}
	switch rng.Intn(3) {
	case 1:
		q.Direction = prov.TraverseDescendants
		q.Depth = rng.Intn(3) // 0 = unlimited
		q.IncludeSeeds = rng.Intn(2) == 0
	case 2:
		q.Direction = prov.TraverseAncestors
		q.Depth = rng.Intn(3)
		q.IncludeSeeds = rng.Intn(2) == 0
	}
	if q.Direction != prov.TraverseNone && rng.Intn(3) == 0 {
		q.Projection = prov.ProjectFull
	}
	return q
}

// recordCounts counts a record list's attr=value pairs. stored collapses a
// repeated pair to one, as SimpleDB does on the way in: the oracle's side of
// a comparison. The native side is counted as returned, so an item whose
// records come back twice still diverges.
func recordCounts(records []prov.Record, stored bool) map[string]int {
	counts := map[string]int{}
	for _, r := range records {
		k := r.Attr + "=" + r.Value.String()
		if counts[k]++; stored {
			counts[k] = 1
		}
	}
	return counts
}

func sortedRefs(refs []prov.Ref) []prov.Ref {
	out := append([]prov.Ref(nil), refs...)
	prov.SortRefs(out)
	return out
}

// TestPushdownAgreesWithEvaluator is the oracle test proper, run with the
// cache enabled and disabled (both plan families must agree with the
// evaluator).
func TestPushdownAgreesWithEvaluator(t *testing.T) {
	for _, disableCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", !disableCache), func(t *testing.T) {
			cl := cloud.New(cloud.Config{Seed: 7})
			layer, err := New(Config{Cloud: cl, DisableQueryCache: disableCache})
			if err != nil {
				t.Fatal(err)
			}
			layer.queryChunk = 3
			rng := rand.New(rand.NewSource(42))
			oracle := genRepo(t, layer, rng, 60)
			ctx := context.Background()

			for i := 0; i < 200; i++ {
				q := genQuery(rng)
				entries, err := core.CollectEntries(layer.Query(ctx, q))
				if err != nil {
					t.Fatalf("query %d %+v: %v", i, q, err)
				}
				native := make([]prov.Ref, len(entries))
				for k, e := range entries {
					native[k] = e.Ref
					if want := oracle.Records(e.Ref); q.Projection == prov.ProjectFull && !reflect.DeepEqual(recordCounts(e.Records, false), recordCounts(want, true)) {
						t.Errorf("query %d (%s): %s carried %v, oracle has %v", i, q.Key(), e.Ref, e.Records, want)
					}
				}
				want := core.EvalQueryRefs(oracle, q)
				if !reflect.DeepEqual(sortedRefs(native), want) {
					t.Errorf("query %d diverged\n  descriptor: %+v\n  key: %s\n  native: %v\n  oracle: %v",
						i, q, q.Key(), sortedRefs(native), want)
				}
			}
		})
	}
}

// TestPushdownFullProjection: full-record projection agrees with the
// oracle's records for filtered queries.
func TestPushdownFullProjection(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 9})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	oracle := genRepo(t, layer, rng, 40)
	ctx := context.Background()

	q := prov.Query{Type: prov.TypeFile, Projection: prov.ProjectFull}
	entries, err := core.CollectEntries(layer.Query(ctx, q))
	if err != nil {
		t.Fatal(err)
	}
	want := core.EvalQuery(oracle, q)
	if len(entries) != len(want) {
		t.Fatalf("entries = %d, oracle = %d", len(entries), len(want))
	}
	core.SortEntries(entries)
	for i, e := range entries {
		if e.Ref != want[i].Ref {
			t.Fatalf("entry %d ref %v != %v", i, e.Ref, want[i].Ref)
		}
		got, expect := recordCounts(e.Records, false), recordCounts(want[i].Records, true)
		if !reflect.DeepEqual(got, expect) {
			t.Fatalf("entry %v records diverged:\n  native: %v\n  oracle: %v", e.Ref, got, expect)
		}
	}
}

// TestToolFilterFetchesNothingExtra pins the acceptance criterion: a
// tool-filtered refs-only query must not fetch any non-matching object's
// provenance — zero GetAttributes, zero Select; only the indexed Query
// calls appear on the meter.
func TestToolFilterFetchesNothingExtra(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 11})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	tool := prov.Ref{Object: "proc/1/blast", Version: 0}
	if err := writeItem(context.Background(), layer, tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "blast"),
	}, ""); err != nil {
		t.Fatal(err)
	}
	out := prov.Ref{Object: "/out", Version: 0}
	if err := writeItem(context.Background(), layer, out, []prov.Record{
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, tool),
	}, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		noise := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/noise%02d", i)), Version: 0}
		if err := writeItem(context.Background(), layer, noise, []prov.Record{
			prov.NewString(noise, prov.AttrType, prov.TypeFile),
		}, ""); err != nil {
			t.Fatal(err)
		}
	}

	before := cl.Usage()
	refs, err := core.CollectRefs(layer.Query(context.Background(), prov.QOutputsOf("blast")))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != out {
		t.Fatalf("outputs = %v", refs)
	}
	after := cl.Usage()
	if gets := after.OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes"); gets != 0 {
		t.Errorf("tool-filtered query issued %d GetAttributes; non-matching items were fetched", gets)
	}
	if selects := after.OpCount(billing.SimpleDB, "Select") - before.OpCount(billing.SimpleDB, "Select"); selects != 0 {
		t.Errorf("tool-filtered query issued %d Select calls (repository scan)", selects)
	}
	if ops := after.TotalOps() - before.TotalOps(); ops > 2 {
		t.Errorf("tool-filtered query cost %d ops; want the two indexed phases", ops)
	}
}
