package sdbprov

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// This file tests the indexed ancestor walk and the per-generation item memo
// behind it by what they meter — op counts, never stopwatches.

// writeLineage stores a chain of n items under prefix — file ← process ←
// file ← … — each also listing one input that was never stored, and returns
// the chain's head (the youngest item) and the refs an ancestor walk from it
// reaches.
func writeLineage(t testing.TB, l *Layer, prefix string, n int) (head prov.Ref, reached []prov.Ref) {
	t.Helper()
	var prev prov.Ref
	for i := 0; i < n; i++ {
		subject := ref(fmt.Sprintf("%s/%03d", prefix, i), 0)
		typ := prov.TypeFile
		if i%2 == 1 {
			typ = prov.TypeProcess
		}
		records := []prov.Record{prov.NewString(subject, prov.AttrType, typ)}
		if i > 0 {
			ghost := ref(fmt.Sprintf("%s/ghost%03d", prefix, i), 0)
			records = append(records, prov.NewInput(subject, prev), prov.NewInput(subject, ghost))
			reached = append(reached, prev, ghost)
		}
		if err := writeItem(context.Background(), l, subject, records, ""); err != nil {
			t.Fatal(err)
		}
		prev = subject
	}
	prov.SortRefs(reached)
	return prev, reached
}

// writeNoise stores n items unrelated to any lineage, 25 to a batch.
func writeNoise(t testing.TB, l *Layer, n int) {
	t.Helper()
	ctx := context.Background()
	for start := 0; start < n; start += 25 {
		var writes []ItemWrite
		for i := start; i < min(start+25, n); i++ {
			subject := ref(fmt.Sprintf("/noise/%05d", i), 0)
			writes = append(writes, ItemWrite{Subject: subject, Records: []prov.Record{
				prov.NewString(subject, prov.AttrType, prov.TypeFile),
				prov.NewString(subject, prov.AttrName, "noise"),
			}})
		}
		err := l.writes.Own(func() error { return l.WriteEncodedBatch(ctx, writes, WritePoints{}) })
		if err != nil {
			t.Fatal(err)
		}
	}
}

// meteredQuery runs q to the end and returns its entries and the cloud ops
// the region metered meanwhile.
func meteredQuery(t testing.TB, l *Layer, cl *cloud.Cloud, q prov.Query) ([]core.Entry, int64) {
	t.Helper()
	before := cl.Usage().TotalOps()
	entries, err := core.CollectEntries(l.Query(context.Background(), q))
	if err != nil {
		t.Fatalf("%s: %v", q.Key(), err)
	}
	return entries, cl.Usage().TotalOps() - before
}

// explainThenRun checks the planner's honesty for one run of q: Explain,
// taken first, predicts exactly what the run then meters.
func explainThenRun(t *testing.T, l *Layer, cl *cloud.Cloud, q prov.Query, what string) ([]core.Entry, int64) {
	t.Helper()
	plan := l.Explain(q)
	entries, ops := meteredQuery(t, l, cl, q)
	if plan.EstOps != ops || !plan.Exact {
		t.Errorf("%s: Explain predicted %d ops (exact=%v), meters recorded %d\n%s", what, plan.EstOps, plan.Exact, ops, plan)
	}
	if plan.Cached != (ops == 0) {
		t.Errorf("%s: plan.Cached = %v for a run of %d ops", what, plan.Cached, ops)
	}
	if plan.Strategy == "" {
		t.Errorf("%s: the plan has no name\n%s", what, plan)
	}
	return entries, ops
}

// TestAncestorWalkOpsIndependentOfDomainSize: the same 40-item lineage costs
// the identical op count beside 200 and beside 5 000 unrelated items — one
// GetAttributes per item the walk visits, dangling inputs included — where
// the Q.1 pass it replaces grew with the domain.
func TestAncestorWalkOpsIndependentOfDomainSize(t *testing.T) {
	noise := []int{200, 5000}
	if testing.Short() {
		noise = []int{50, 400}
	}
	var costs []int64
	for _, n := range noise {
		cl := cloud.New(cloud.Config{Seed: 1})
		layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
		if err != nil {
			t.Fatal(err)
		}
		head, reached := writeLineage(t, layer, "/lin", 40)
		writeNoise(t, layer, n)
		q := prov.QAncestors(head)
		if plan := layer.Explain(q); plan.Strategy != "indexed-walk" {
			t.Errorf("strategy %q, want the indexed walk\n%s", plan.Strategy, plan)
		}
		entries, ops := explainThenRun(t, layer, cl, q, fmt.Sprintf("noise=%d", n))
		got := make([]prov.Ref, len(entries))
		for i, e := range entries {
			got[i] = e.Ref
		}
		if !reflect.DeepEqual(sortedRefs(got), reached) {
			t.Fatalf("noise=%d: walk reached %d refs, want %d", n, len(got), len(reached))
		}
		costs = append(costs, ops)
	}
	// 40 stored items + 39 dangling inputs, each fetched once.
	if costs[0] != 79 || costs[1] != costs[0] {
		t.Fatalf("ancestor walk cost %v ops across domain sizes %v; want 79 both times", costs, noise)
	}
}

// TestFullProjectionTraversalFetchesOnce: with the cache disabled the item
// memo lives for one query, and that is enough for a full-projection walk to
// fetch each item it touches once — not once to expand and again to output.
func TestFullProjectionTraversalFetchesOnce(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	head, reached := writeLineage(t, layer, "/lin", 12)
	writeNoise(t, layer, 30)
	for _, q := range []prov.Query{
		{Refs: []prov.Ref{head}, Direction: prov.TraverseAncestors, IncludeSeeds: true, Projection: prov.ProjectFull},
		{Refs: []prov.Ref{head}, Type: prov.TypeProcess, Direction: prov.TraverseAncestors, Projection: prov.ProjectFull, Limit: 5},
	} {
		before := cl.Usage()
		entries, ops := explainThenRun(t, layer, cl, q, q.Key())
		gets := cl.Usage().OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes")
		// Every item the query touches: the head, and what the walk reaches
		// from it (a filtered-out head seeds nothing).
		touched := int64(1)
		if len(entries) > 0 {
			touched += int64(len(reached))
		}
		if gets != touched || ops != gets {
			t.Errorf("%s: %d GetAttributes of %d ops for %d distinct items", q.Key(), gets, ops, touched)
		}
	}
	// The memo died with its query: the same walk pays again.
	if _, ops := meteredQuery(t, layer, cl, prov.QAncestors(head)); ops == 0 {
		t.Error("a disabled cache carried items across queries")
	}
}

// TestAncestorPlanSeesSpilledInputs: an item's inputs past the 256-attribute
// limit live in its S3 spill object, outside the backend's index and the
// catalog's — but a fetch decodes them, so the walk's next frontier has them
// and the plan must too.
func TestAncestorPlanSeesSpilledInputs(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	subject := ref("/wide", 0)
	var records []prov.Record
	for i := 0; i < 300; i++ {
		in := ref(fmt.Sprintf("/in/%03d", i), 0)
		if err := writeItem(context.Background(), layer, in, []prov.Record{prov.NewString(in, prov.AttrType, prov.TypeFile)}, ""); err != nil {
			t.Fatal(err)
		}
		records = append(records, prov.NewInput(subject, in))
	}
	if err := writeItem(context.Background(), layer, subject, records, ""); err != nil {
		t.Fatal(err)
	}
	entries, ops := explainThenRun(t, layer, cl, prov.QAncestors(subject), "spilled inputs")
	// The subject (GetAttributes + spill GET), then its 300 inputs.
	if len(entries) != 300 || ops != 302 {
		t.Fatalf("walk over a spilled item: %d ancestors for %d ops, want 300 for 302", len(entries), ops)
	}
	// The index still cannot see a spilled input, and the plan knows it.
	last := prov.Query{Refs: []prov.Ref{ref("/in/299", 0)}, Direction: prov.TraverseDescendants, Projection: prov.ProjectRefs}
	if entries, _ := explainThenRun(t, layer, cl, last, "dependents of a spilled input"); len(entries) != 0 {
		t.Fatalf("the index matched a spilled input: %v", entries)
	}
}

// TestAncestorWalkWarmPaths: on a cached layer a repeated walk is free from
// the refs memo, a differently shaped query over the same items is free from
// the item memo, and a repository warmed by Q.1 answers a walk it never ran
// at zero ops from the snapshot — all three predicted by Explain.
func TestAncestorWalkWarmPaths(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	head, reached := writeLineage(t, layer, "/lin", 10)
	writeNoise(t, layer, 20)
	refsOnly := prov.QAncestors(head)
	full := refsOnly
	full.Projection = prov.ProjectFull
	extract := prov.Query{Refs: append([]prov.Ref{head}, reached[:3]...), Direction: prov.TraverseAncestors,
		IncludeSeeds: true, Projection: prov.ProjectFull, Limit: 4}

	if _, ops := explainThenRun(t, layer, cl, refsOnly, "cold"); ops != 19 {
		t.Errorf("cold walk cost %d ops, want 19", ops)
	}
	for _, q := range []prov.Query{refsOnly, full, extract} {
		if _, ops := explainThenRun(t, layer, cl, q, "memo-warm "+q.Key()); ops != 0 {
			t.Errorf("memo-warm %s cost %d ops", q.Key(), ops)
		}
	}

	writeNoise(t, layer, 1) // a write: everything above is gone
	if _, ops := explainThenRun(t, layer, cl, full, "after write"); ops != 19 {
		t.Errorf("walk after a write cost %d ops, want 19", ops)
	}

	// Pinned refs under no filter run no primitive to find their refs; the
	// plan — the router's inputs-of-refs round, replay's fetches — still has
	// its name.
	pinned := prov.Query{Refs: []prov.Ref{head, reached[0]}, Projection: prov.ProjectFull}
	writeNoise(t, layer, 1)
	if plan := layer.Explain(pinned); plan.Strategy != "pinned-refs" {
		t.Errorf("pinned full projection: strategy %q, want pinned-refs\n%s", plan.Strategy, plan)
	}
	if _, ops := explainThenRun(t, layer, cl, pinned, "pinned cold"); ops != 2 {
		t.Errorf("pinned fetch of 2 items cost %d ops", ops)
	}

	writeNoise(t, layer, 1)
	if _, _ = meteredQuery(t, layer, cl, prov.Q1()); !layer.cache.Warm() {
		t.Fatal("Q.1 left no snapshot")
	}
	for _, q := range []prov.Query{refsOnly, full, extract} {
		entries, ops := explainThenRun(t, layer, cl, q, "snapshot-warm "+q.Key())
		if ops != 0 || len(entries) == 0 {
			t.Errorf("snapshot-warm %s: %d entries for %d ops", q.Key(), len(entries), ops)
		}
	}
}

// TestItemMemoInvalidation: items the query path memoized are dropped by an
// own write, by a foreign writer's metered mutation, and — under a
// propagation delay — by the epoch advancing; and an item that was not yet
// visible when a query looked is looked for again once the stamp moves.
func TestItemMemoInvalidation(t *testing.T) {
	layer, cl := newTestLayer(t, 2*time.Second)
	head, _ := writeLineage(t, layer, "/lin", 6)
	cl.Settle()
	q := prov.Query{Refs: []prov.Ref{head}, Projection: prov.ProjectFull}
	fetches := func(what string, want int64) {
		t.Helper()
		if _, ops := meteredQuery(t, layer, cl, q); ops != want {
			t.Errorf("%s: pinned fetch cost %d ops, want %d", what, ops, want)
		}
	}
	fetches("cold", 1)
	fetches("warm", 0)
	writeNoise(t, layer, 1)
	fetches("after own write", 1)
	fetches("warm again", 0)
	if err := cl.S3.Put(layer.Bucket(), "data/foreign", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	fetches("after a foreign write", 1)
	fetches("warm again", 0)
	cl.Settle()
	fetches("after the epoch advanced", 1)

	// A not-yet-visible item: written, but this replica has not seen it.
	late := ref("/late", 0)
	lateQ := prov.Query{Refs: []prov.Ref{late}, Projection: prov.ProjectFull}
	sawNothing := false
	for try := 0; try < 50 && !sawNothing; try++ {
		if err := writeItem(context.Background(), layer, late, []prov.Record{
			prov.NewString(late, prov.AttrType, prov.TypeFile),
			prov.NewString(late, prov.AttrName, fmt.Sprint(try)),
		}, ""); err != nil {
			t.Fatal(err)
		}
		entries, _ := meteredQuery(t, layer, cl, lateQ)
		sawNothing = len(entries) == 1 && len(entries[0].Records) < 2+try
	}
	if !sawNothing {
		t.Skip("no read raced propagation at this seed")
	}
	if _, ops := meteredQuery(t, layer, cl, lateQ); ops != 0 {
		t.Errorf("a stale reading was not memoized within its stamp (%d ops)", ops)
	}
	cl.Settle()
	entries, ops := meteredQuery(t, layer, cl, lateQ)
	if ops == 0 || len(entries) != 1 || len(entries[0].Records) < 2 {
		t.Errorf("after settling, %d ops returned %v: the stale reading outlived its stamp", ops, entries)
	}
}

// TestVerifiersBypassItemMemo: a verifier reads what is stored. With every
// item hot in the memo, VerifiedGet, Provenance and Audit meter exactly the
// ops they meter cold.
func TestVerifiersBypassItemMemo(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()
	obj := prov.ObjectID("/data")
	subject := prov.Ref{Object: obj}
	data := []byte("payload")
	if err := cl.S3.Put(layer.Bucket(), core.DataKey(obj), data, map[string]string{core.MetaNonce: "n", core.MetaVersion: "0"}); err != nil {
		t.Fatal(err)
	}
	if err := writeItem(ctx, layer, subject, []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}, ConsistencyMD5(data, "n")); err != nil {
		t.Fatal(err)
	}
	read := ReadSide{layerReads: layer, layer: layer}
	verifiers := func() (ops [3]int64) {
		t.Helper()
		for i, f := range []func() error{
			func() error { _, err := layer.VerifiedGet(ctx, obj); return err },
			func() error { _, err := read.Provenance(ctx, subject); return err },
			func() error { _, err := layer.Audit(ctx); return err },
		} {
			before := cl.Usage().TotalOps()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			ops[i] = cl.Usage().TotalOps() - before
		}
		return ops
	}
	cold := verifiers()
	full := prov.Query{Refs: []prov.Ref{subject}, Projection: prov.ProjectFull}
	meteredQuery(t, layer, cl, full)
	if _, ops := meteredQuery(t, layer, cl, full); ops != 0 {
		t.Fatalf("the memo is not hot (%d ops)", ops)
	}
	if hot := verifiers(); hot != cold || cold[0] == 0 || cold[1] == 0 || cold[2] == 0 {
		t.Fatalf("VerifiedGet/Provenance/Audit metered %v ops cold, %v with the memo hot", cold, hot)
	}
}

// TestItemMemoConcurrentReadersBesideWriter: under -race, walks and pinned
// fetches beside a writer always return a lineage that was stored — the full
// one — whatever mix of memo, snapshot and live fetches served it.
func TestItemMemoConcurrentReadersBesideWriter(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	ctx := context.Background()
	head, reached := writeLineage(t, layer, "/lin", 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 30; i++ {
			subject := ref(fmt.Sprintf("/w/%02d", i), 0)
			if err := writeItem(ctx, layer, subject, []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}, ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := prov.Query{Refs: []prov.Ref{head}, Direction: prov.TraverseAncestors, Projection: prov.ProjectFull}
			for i := 0; ; i++ {
				if i%5 == 4 {
					if _, err := layer.ProvenanceGraph(ctx); err != nil {
						t.Error(err)
						return
					}
				}
				entries, err := core.CollectEntries(layer.Query(ctx, q))
				if err != nil {
					t.Error(err)
					return
				}
				if len(entries) != len(reached) {
					t.Errorf("walk returned %d of %d ancestors", len(entries), len(reached))
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkAncestorsNative walks one fixed 40-item lineage, uncached, in
// domains of 1 k and 16 k items: time and cloudops/op must not follow the
// domain.
func BenchmarkAncestorsNative(b *testing.B) {
	for _, n := range []int{1_000, 16_000} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			cl := cloud.New(cloud.Config{Seed: 1})
			layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
			if err != nil {
				b.Fatal(err)
			}
			head, _ := writeLineage(b, layer, "/lin", 40)
			writeNoise(b, layer, n-40)
			q := prov.QAncestors(head)
			before := cl.Usage().TotalOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.CollectRefs(layer.Query(context.Background(), q)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cl.Usage().TotalOps()-before)/float64(b.N), "cloudops/op")
		})
	}
}
