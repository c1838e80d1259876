package s3only

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// fuzzBytes hands out small choices from fuzz input; exhausted input reads
// as zeros, so every byte string is a valid script.
type fuzzBytes []byte

func (b *fuzzBytes) n(k int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// sameGraph fails unless got and want hold the same subjects with the same
// records in the same order, and the same edge sources with the same child
// lists as multisets.
func sameGraph(t *testing.T, step int, got, want *prov.Graph) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: snapshot holds %d subjects, a scan %d", step, got.Len(), want.Len())
	}
	for ref, records := range want.SubjectSeq() {
		if !slices.Equal(got.Records(ref), records) {
			t.Fatalf("step %d: %s\nsnapshot %v\nscan     %v", step, ref, got.Records(ref), records)
		}
	}
	sources := func(g *prov.Graph) []prov.Ref {
		refs := slices.Collect(g.EdgeSourceSeq())
		prov.SortRefs(refs)
		return refs
	}
	if gs, ws := sources(got), sources(want); !slices.Equal(gs, ws) {
		t.Fatalf("step %d: edge sources\nsnapshot %v\nscan     %v", step, gs, ws)
	}
	for parent := range want.EdgeSourceSeq() {
		g, w := slices.Clone(got.ChildList(parent)), slices.Clone(want.ChildList(parent))
		prov.SortRefs(g)
		prov.SortRefs(w)
		if !slices.Equal(g, w) {
			t.Fatalf("step %d: children of %s\nsnapshot %v\nscan     %v", step, parent, g, w)
		}
	}
}

// patchScript decodes fuzz bytes into a run of batches against one store and
// checks after each that the snapshot read equals a fresh scan, record for
// record. Each batch mixes file versions (new, repeated, stale), transient
// riders, input edges, >1 KB values and spilling metadata; around it the
// script may arm a transient, ack-lost or permanent S3 PUT fault or a
// client crash point, Sync the trailing riders, or let a second client write
// — after the batch or inside it.
// It returns how many reads a patch answered.
func patchScript(t *testing.T, data []byte) uint64 {
	b := fuzzBytes(data)
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1 + b.n(3), Retry: tightRetry,
		DisableIntegrity: b.n(2) == 0, Writer: "a"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Cloud: cl, DisableQueryCache: true, Writer: "b"})
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, 5) // next version per file object
	var refs []prov.Ref    // subjects written so far, for input edges
	file := func(j, version int) pass.FlushEvent {
		ev := fileEvent(fmt.Sprintf("/f%d", j), version, "body")
		for k := b.n(3); k > 0 && len(refs) > 0; k-- {
			ev.Records = append(ev.Records, prov.NewInput(ev.Ref, refs[b.n(len(refs))]))
		}
		switch b.n(4) {
		case 0: // a value over the overflow threshold
			ev.Records = append(ev.Records, prov.NewString(ev.Ref, prov.AttrEnv, strings.Repeat("E", 1100+b.n(50))))
		case 1: // more metadata than S3 holds: the rest spills into a bundle
			for k := 0; k < 24; k++ {
				ev.Records = append(ev.Records, prov.NewString(ev.Ref, prov.AttrArgv, fmt.Sprintf("%03d-%s", k, strings.Repeat("a", 90))))
			}
		}
		return ev
	}
	for step := 0; len(b) > 0 && step < 40; step++ {
		var batch []pass.FlushEvent
		for k := 1 + b.n(4); k > 0; k-- {
			switch kind := b.n(8); {
			case kind < 2: // a transient subject: its records ride the next carrier
				ev := procEvent(fmt.Sprintf("p%d", b.n(3)), 1)
				if len(refs) > 0 && b.n(2) == 0 {
					ev.Records = append(ev.Records, prov.NewInput(ev.Ref, refs[b.n(len(refs))]))
				}
				if b.n(4) == 0 {
					ev.Records = append(ev.Records, prov.NewString(ev.Ref, prov.AttrEnv, strings.Repeat("P", 1200)))
				}
				batch = append(batch, ev)
			case kind == 2: // an older version than the one that landed: skipped
				j := b.n(len(next))
				batch = append(batch, file(j, max(0, next[j]-2)))
			default:
				j := b.n(len(next))
				v := next[j]
				if b.n(4) > 0 {
					next[j]++ // else: the same version again, an overwrite
				}
				batch = append(batch, file(j, v))
			}
		}
		for _, ev := range batch {
			refs = append(refs, ev.Ref)
		}
		switch b.n(10) {
		case 0:
			faults.ArmOp("s3/PUT", sim.ClassTransient, b.n(4), 1)
		case 1:
			faults.ArmOp("s3/PUT", sim.ClassAckLoss, b.n(4), 1)
		case 2:
			faults.ArmOp("s3/PUT", sim.ClassPermanent, b.n(4), 1) // a partial write
		case 3:
			faults.Arm([]*sim.Point{PointAfterOverflowPut, PointAfterBundlePut, PointBeforePut}[b.n(3)])
		}
		theirs := fileEvent(fmt.Sprintf("/f%d", b.n(len(next))), 99, "theirs")
		var bctx context.Context = ctx
		if at := b.n(8); at < 3 { // the second client writes inside the batch
			bctx = withHook(ctx, at+1, func() { _ = core.Put(ctx, other, theirs) })
		}
		_ = st.PutBatch(bctx, batch) // whatever landed, a scan is the reference
		switch b.n(6) {
		case 0:
			_ = st.Sync(ctx)
		case 1:
			faults.DisarmOps()
			if err := core.Put(ctx, other, theirs); err != nil {
				t.Fatal(err)
			}
		}
		faults.DisarmOps()
		got, err := st.ProvenanceGraph(ctx)
		if err != nil {
			t.Fatalf("step %d: snapshot read: %v", step, err)
		}
		want, err := core.CollectGraph(st.scanSeq(ctx, nil))
		if err != nil {
			t.Fatalf("step %d: scan: %v", step, err)
		}
		sameGraph(t, step, got, want)
	}
	return st.CacheStats().GraphPatches
}

// FuzzSnapshotPatchMatchesScan: whatever sequence of batches, faults, Syncs
// and foreign writes a client lives through, the snapshot it reads — patched
// with its own writes or rescanned — is what a fresh scan reads.
func FuzzSnapshotPatchMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 200)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) { patchScript(t, data) })
}

// TestSnapshotPatchMatchesScanSeeded runs the fuzz body on fixed seeds, and
// checks that the patch path is taken at all.
func TestSnapshotPatchMatchesScanSeeded(t *testing.T) {
	var patches uint64
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 240)
		rand.New(rand.NewSource(seed)).Read(data)
		patches += patchScript(t, data)
	}
	if patches == 0 {
		t.Fatal("no read was answered by a patch")
	}
}

// TestOwnWritePatchesSnapshot: after this client's own write, the next query
// answers from the patched snapshot — zero cloud ops, Explain says so, and the
// answer is a fresh scan's.
func TestOwnWritePatchesSnapshot(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()
	blast := procEvent("blast", 1)
	out1 := fileEvent("/out1", 0, "a", prov.NewInput(prov.Ref{Object: "/out1"}, blast.Ref))
	if err := st.PutBatch(ctx, []pass.FlushEvent{blast, out1}); err != nil {
		t.Fatal(err)
	}
	loadN(t, st, 10)
	if _, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast"))); err != nil {
		t.Fatal(err)
	}
	out2 := fileEvent("/out2", 0, "b", prov.NewInput(prov.Ref{Object: "/out2"}, blast.Ref))
	if err := core.Put(ctx, st, out2); err != nil {
		t.Fatal(err)
	}
	plan := st.Explain(prov.QOutputsOf("blast"))
	before := cl.Usage().TotalOps()
	refs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(refs) != 2 {
		t.Fatalf("OutputsOf after an own write = %v, %v", refs, err)
	}
	if ops := cl.Usage().TotalOps() - before; ops != 0 || plan.EstOps != 0 || !plan.Cached {
		t.Fatalf("query after an own write metered %d ops; plan %s", ops, plan)
	}
	if stats := st.CacheStats(); stats.GraphPatches != 1 || stats.GraphMisses != 1 {
		t.Fatalf("cache stats = %+v, want one scan and one patch", stats)
	}
	g, err := st.ProvenanceGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CollectGraph(st.scanSeq(ctx, nil))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, 0, g, want)
}

// hookCtx runs hook at the n-th Err check — a fixed point inside a write
// section, reached without a goroutine racing it.
type hookCtx struct {
	context.Context
	n    atomic.Int32
	hook func()
}

func withHook(ctx context.Context, n int, hook func()) *hookCtx {
	c := &hookCtx{Context: ctx, hook: hook}
	c.n.Store(int32(n))
	return c
}

func (c *hookCtx) Err() error {
	if c.n.Add(-1) == 0 {
		c.hook()
	}
	return c.Context.Err()
}

// TestForeignWriteIsNeverPatchedOver: two clients share one namespace. When
// B writes between A's batch and A's query, or inside A's batch window, A's
// next query scans — it returns B's write, and no patch was taken.
func TestForeignWriteIsNeverPatchedOver(t *testing.T) {
	for _, inWindow := range []bool{false, true} {
		t.Run(fmt.Sprintf("inWindow=%v", inWindow), func(t *testing.T) {
			ctx := context.Background()
			cl := cloud.New(cloud.Config{Seed: 1})
			a, err := New(Config{Cloud: cl, Writer: "a"})
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(Config{Cloud: cl, Writer: "b"})
			if err != nil {
				t.Fatal(err)
			}
			loadN(t, a, 5)
			if _, err := core.CollectRefs(a.Query(ctx, prov.Q1())); err != nil {
				t.Fatal(err)
			}
			theirs := fileEvent("/theirs", 0, "b")
			bWrites := func() {
				if err := core.Put(ctx, b, theirs); err != nil {
					t.Fatal(err)
				}
			}
			mine := fileEvent("/mine", 0, "a")
			if inWindow {
				// After the batch's first checks, before its data PUT.
				if err := a.PutBatch(withHook(ctx, 2, bWrites), []pass.FlushEvent{mine}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := core.Put(ctx, a, mine); err != nil {
					t.Fatal(err)
				}
				bWrites()
			}
			if a.Explain(prov.Q1()).Cached {
				t.Fatal("A's plan claims its snapshot is current after B's write")
			}
			all, err := core.CollectBySubject(a.Query(ctx, prov.Q1()))
			if err != nil || all[theirs.Ref] == nil || all[mine.Ref] == nil {
				t.Fatalf("A's query after B's write = %d subjects, %v; want both writes", len(all), err)
			}
			if stats := a.CacheStats(); stats.GraphPatches != 0 || stats.GraphMisses != 2 {
				t.Fatalf("A's cache stats = %+v, want two scans and no patch", stats)
			}
		})
	}
}

// TestDelayedRegionNeverPatches: under a propagation delay a patched snapshot
// would be fresher than any scan, so an own write drops the snapshot.
func TestDelayedRegionNeverPatches(t *testing.T) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: 2 * time.Second})
	st, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	loadN(t, st, 5)
	if _, err := core.CollectRefs(st.Query(ctx, prov.Q1())); err != nil {
		t.Fatal(err)
	}
	if err := core.Put(ctx, st, fileEvent("/mine", 0, "a")); err != nil {
		t.Fatal(err)
	}
	if st.Explain(prov.Q1()).Cached {
		t.Fatal("plan claims a current snapshot after an own write on a delayed region")
	}
	before := cl.Usage().TotalOps()
	if _, err := core.CollectRefs(st.Query(ctx, prov.Q1())); err != nil {
		t.Fatal(err)
	}
	if ops := cl.Usage().TotalOps() - before; ops == 0 {
		t.Fatal("query after an own write on a delayed region metered no scan")
	}
	if stats := st.CacheStats(); stats.GraphPatches != 0 || stats.GraphMisses != 2 {
		t.Fatalf("cache stats = %+v, want two scans and no patch", stats)
	}
}

// TestOwnPutBatchAllocsFlat guards the close path: with a warm snapshot, one
// single-file PutBatch allocates the same at 1k and at 4k objects — nothing
// proportional to the store is done or copied on a write.
func TestOwnPutBatchAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 5k objects")
	}
	ctx := context.Background()
	allocs := func(n int) float64 {
		st, _ := newTestStore(t, nil)
		loadN(t, st, n)
		if _, err := st.ProvenanceGraph(ctx); err != nil {
			t.Fatal(err)
		}
		v := 0
		a := testing.AllocsPerRun(50, func() {
			v++
			if err := core.Put(ctx, st, fileEvent("/hot", v, "x")); err != nil {
				t.Fatal(err)
			}
		})
		if st.Explain(prov.Q1()).Strategy != "snapshot" {
			t.Fatalf("n=%d: the writes did not extend the snapshot", n)
		}
		return a
	}
	small, large := allocs(1000), allocs(4000)
	if d := large - small; d > 2 || d < -2 {
		t.Fatalf("one own PutBatch allocates %.0f times on 1k objects but %.0f on 4k", small, large)
	}
}

// TestFollowerUnderConcurrentWritesAndReads: batches, Syncs, reads and plans
// of one client from several goroutines at once; sections that overlap drop
// the chain instead of patching, and once they are done the snapshot read is
// a fresh scan's.
func TestFollowerUnderConcurrentWritesAndReads(t *testing.T) {
	st, _ := newTestStore(t, nil)
	ctx := context.Background()
	loadN(t, st, 20)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				proc := procEvent(fmt.Sprintf("w%d", w), w+1)
				out := fileEvent(fmt.Sprintf("/w%d/%d", w, i%5), i, "x", prov.NewInput(prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/w%d/%d", w, i%5)), Version: prov.Version(i)}, proc.Ref))
				if err := st.PutBatch(ctx, []pass.FlushEvent{proc, out}); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if err := st.Sync(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 30 {
				st.Explain(prov.Q1())
				if _, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("w0"))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := st.ProvenanceGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CollectGraph(st.scanSeq(ctx, nil))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, 0, got, want)
}
