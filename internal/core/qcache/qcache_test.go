package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/prov"
)

// generation is a write generation the test moves by hand.
type generation struct{ atomic.Uint64 }

func (g *generation) Bump() { g.Add(1) }

func genStamp(gen *generation) StampFunc {
	return func() Stamp { return Stamp{Gen: gen.Load()} }
}

func testGraph(n int) *prov.Graph {
	g := prov.NewGraph()
	for i := 0; i < n; i++ {
		ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/o%d", i))}
		g.Add(prov.NewString(ref, prov.AttrType, prov.TypeFile))
	}
	return g
}

func TestGraphHitWhileGenerationUnchanged(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	builds := 0
	build := func(context.Context) (*prov.Graph, error) {
		builds++
		return testGraph(builds), nil
	}
	ctx := context.Background()

	g1, err := c.Graph(ctx, build)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Graph(ctx, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 || g1 != g2 {
		t.Fatalf("builds = %d, snapshots identical = %v; want one shared build", builds, g1 == g2)
	}
	st := c.Stats()
	if st.GraphHits != 1 || st.GraphMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteInvalidatesSnapshotAndMemo(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	ctx := context.Background()
	builds := 0
	build := func(context.Context) (*prov.Graph, error) {
		builds++
		return testGraph(builds), nil
	}
	computes := 0
	compute := func(context.Context) ([]prov.Ref, error) {
		computes++
		return []prov.Ref{{Object: prov.ObjectID(fmt.Sprintf("/r%d", computes))}}, nil
	}

	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Refs(ctx, "q", compute); err != nil {
		t.Fatal(err)
	}

	gen.Bump() // a write lands

	g, err := c.Graph(ctx, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds after bump = %d, want rebuild", builds)
	}
	if g.Len() != 2 {
		t.Fatalf("served stale snapshot after write: len = %d", g.Len())
	}
	refs, err := c.Refs(ctx, "q", compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 2 || refs[0].Object != "/r2" {
		t.Fatalf("memo survived write: computes = %d, refs = %v", computes, refs)
	}
}

func TestConcurrentBuildsCoalesce(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	build := func(context.Context) (*prov.Graph, error) {
		builds.Add(1)
		close(started)
		<-release
		return testGraph(3), nil
	}
	ctx := context.Background()

	const callers = 8
	var wg sync.WaitGroup
	graphs := make([]*prov.Graph, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i], errs[i] = c.Graph(ctx, build)
		}()
	}
	<-started
	// All callers are now either the leader or waiting on it.
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", n)
	}
	for i := range graphs {
		if errs[i] != nil || graphs[i] != graphs[0] {
			t.Fatalf("caller %d: graph %p err %v, want shared snapshot", i, graphs[i], errs[i])
		}
	}
}

func TestWaiterDetachesOnOwnCancellation(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = c.Graph(context.Background(), func(context.Context) (*prov.Graph, error) {
			close(started)
			<-release
			return testGraph(1), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
			t.Error("waiter must not start its own build while one is in flight")
			return nil, nil
		})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not detach on cancellation")
	}
	close(release)
}

func TestLeaderCancellationPromotesWaiter(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Graph(leaderCtx, func(ctx context.Context) (*prov.Graph, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderDone <- err
	}()
	<-started

	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Graph(context.Background(), func(context.Context) (*prov.Graph, error) {
			return testGraph(1), nil
		})
		waiterDone <- err
	}()
	// Give the waiter a moment to join the in-flight call, then kill the
	// leader: the waiter must take over and succeed.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("promoted waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter was not promoted after leader cancellation")
	}
}

// TestStaleLeaderDoesNotClobberNewerSnapshot: a build that straddles a
// write finishes with a stale stamp and must not overwrite a snapshot a
// later leader installed for the current stamp.
func TestStaleLeaderDoesNotClobberNewerSnapshot(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	ctx := context.Background()

	started := make(chan struct{})
	release := make(chan struct{})
	slowDone := make(chan struct{})
	go func() { // leader A: starts at gen 0, finishes after the write
		defer close(slowDone)
		_, _ = c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
			close(started)
			<-release
			return testGraph(1), nil // the stale (pre-write) view
		})
	}()
	<-started
	gen.Bump() // a write lands mid-build

	// Leader B: builds and installs the post-write snapshot.
	fresh, err := c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
		return testGraph(2), nil
	})
	if err != nil || fresh.Len() != 2 {
		t.Fatalf("fresh build: %v len %d", err, fresh.Len())
	}
	close(release)
	<-slowDone

	// The current-stamp snapshot must still be B's, at zero extra builds.
	g, err := c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
		t.Error("rebuild triggered; stale leader evicted the fresh snapshot")
		return testGraph(3), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g != fresh {
		t.Fatalf("snapshot replaced: len %d, want the fresh one", g.Len())
	}
}

func TestBuildErrorIsNotCached(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Graph(ctx, func(context.Context) (*prov.Graph, error) {
		calls++
		return testGraph(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d; an error must not be cached", calls)
	}
}

func TestEpochExpiresSnapshotOnEventuallyConsistentRegion(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: 10 * time.Second})
	w := NewWrites(cl)
	c := New(w.Stamp)
	ctx := context.Background()
	builds := 0
	build := func(context.Context) (*prov.Graph, error) {
		builds++
		return testGraph(builds), nil
	}
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, build); err != nil || builds != 1 {
		t.Fatalf("builds = %d, err = %v; want hit within the horizon", builds, err)
	}
	cl.Settle() // time passes the propagation horizon: replicas converged
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d; a settled region must expire the snapshot", builds)
	}
}

// TestForeignWriteInvalidates covers the shared-region case: another
// client's write — which never bumps this store's generation — must still
// expire the snapshot, via the region's metered mutation count.
func TestForeignWriteInvalidates(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	if err := cl.S3.CreateBucket("pass"); err != nil {
		t.Fatal(err)
	}
	w := NewWrites(cl)
	c := New(w.Stamp)
	ctx := context.Background()
	builds := 0
	build := func(context.Context) (*prov.Graph, error) {
		builds++
		return testGraph(builds), nil
	}
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	// A neighbor client writes directly to the region.
	if err := cl.S3.Put("pass", "data/foreign", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d; a foreign write must invalidate the snapshot", builds)
	}
}

func TestStrongRegionEpochConstant(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	w := NewWrites(cl)
	c := New(w.Stamp)
	ctx := context.Background()
	builds := 0
	build := func(context.Context) (*prov.Graph, error) {
		builds++
		return testGraph(1), nil
	}
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	if _, err := c.Graph(ctx, build); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d; strong consistency should cache across Settle", builds)
	}
}

// TestConcurrentQueriesDuringWrites hammers the cache from query goroutines
// while a writer bumps the generation, asserting (under -race) that no
// caller ever observes a half-built graph: every returned snapshot has the
// full record count its build put in.
func TestConcurrentQueriesDuringWrites(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	const graphSize = 50
	build := func(context.Context) (*prov.Graph, error) {
		// Simulate a multi-step cloud scan: the graph grows record by
		// record before being published.
		g := prov.NewGraph()
		for i := 0; i < graphSize; i++ {
			ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/o%d", i))}
			g.Add(prov.NewString(ref, prov.AttrType, prov.TypeFile))
		}
		return g, nil
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for i := 0; i < 200; i++ {
			gen.Bump()
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // the queriers
			defer wg.Done()
			for {
				g, err := c.Graph(ctx, build)
				if err != nil {
					t.Errorf("Graph: %v", err)
					return
				}
				if g.Len() != graphSize {
					t.Errorf("observed half-built graph: %d subjects", g.Len())
					return
				}
				if _, err := c.Refs(ctx, "k", func(context.Context) ([]prov.Ref, error) {
					return []prov.Ref{{Object: "/r"}}, nil
				}); err != nil {
					t.Errorf("Refs: %v", err)
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

// itemRecords is one item's worth of records for the item-memo tests.
func itemRecords(ref prov.Ref) []prov.Record {
	return []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}
}

// fetchInto is what the query path does on a miss: look, fetch, record.
func fetchInto(t *testing.T, v *Items, ref prov.Ref, records []prov.Record) {
	t.Helper()
	if _, ok := v.Get(ref); ok {
		t.Fatalf("the view already knew %s", ref)
	}
	v.Put(ref, records)
}

// TestItemsServeOnlyUnderTheirStamp: the items a query shared are served to
// every view opened at the same stamp and to none opened after an own write,
// a foreign writer's metered mutation, or an epoch advance — and a reading of
// "not visible" (nil records) is a reading like any other.
func TestItemsServeOnlyUnderTheirStamp(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: 10 * time.Second})
	if err := cl.S3.CreateBucket("pass"); err != nil {
		t.Fatal(err)
	}
	w := NewWrites(cl)
	c := New(w.Stamp)
	seen, unseen, later := prov.Ref{Object: "/seen"}, prov.Ref{Object: "/unseen"}, prov.Ref{Object: "/later"}
	record := func() {
		t.Helper()
		v := c.Items()
		if _, ok := v.Get(seen); ok {
			t.Fatal("a fresh stamp served an item recorded under an older one")
		}
		if _, ok := v.Get(unseen); ok {
			t.Fatal("a fresh stamp served a not-visible reading taken under an older one")
		}
		v.Put(seen, itemRecords(seen))
		v.Put(unseen, nil)
		if _, ok := c.Items().Get(seen); ok {
			t.Fatal("a query's fetches were visible to another before it shared them")
		}
		v.Share()
		second := c.Items() // shares into a memo that is no longer empty
		fetchInto(t, second, later, itemRecords(later))
		second.Share()
		for _, view := range []*Items{v, second, c.Items()} {
			for _, ref := range []prov.Ref{seen, later} {
				if got, ok := view.Get(ref); !ok || len(got) != 1 || got[0].Subject != ref {
					t.Fatalf("%s not served at its stamp: %v %v", ref, got, ok)
				}
			}
			if got, ok := view.Get(unseen); !ok || got != nil {
				t.Fatalf("not-visible reading not served at its stamp: %v %v", got, ok)
			}
		}
	}
	record()
	w.Bump() // own write
	record()
	if err := cl.S3.Put("pass", "data/foreign", []byte("x"), nil); err != nil { // foreign writer
		t.Fatal(err)
	}
	record()
	cl.Settle() // the epoch advances past the propagation horizon
	record()
}

// TestItemsOvertakenByWriteAreNotShared: readings a write overtook are not
// published — they may or may not contain the write — while the query that
// took them keeps what it read.
func TestItemsOvertakenByWriteAreNotShared(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	a, b := prov.Ref{Object: "/a"}, prov.Ref{Object: "/b"}
	early := c.Items()
	fetchInto(t, early, a, itemRecords(a))
	early.Share()
	v := c.Items()
	fetchInto(t, v, b, itemRecords(b))
	gen.Bump()
	v.Share()
	for _, ref := range []prov.Ref{a, b} {
		if _, ok := v.Get(ref); !ok {
			t.Errorf("the query lost %s, which it read at its own stamp", ref)
		}
		if _, ok := c.Items().Get(ref); ok {
			t.Errorf("a view opened after the write was served the older reading of %s", ref)
		}
	}
}

// TestItemsViewOpensAtFirstRead: a query that reads no item pays for no view —
// no stamp sample when it starts or ends — and a reading recorded without the
// look that dates it is never published.
func TestItemsViewOpensAtFirstRead(t *testing.T) {
	var samples atomic.Int64
	c := New(func() Stamp { samples.Add(1); return Stamp{} })
	a := prov.Ref{Object: "/a"}
	idle := c.Items()
	idle.Share()
	undated := c.Items()
	undated.Put(a, itemRecords(a))
	undated.Share()
	if n := samples.Load(); n != 0 {
		t.Errorf("views that read nothing sampled the stamp %d times", n)
	}
	if _, ok := c.Items().Get(a); ok {
		t.Error("a reading with no stamp was shared")
	}
	v := c.Items()
	before := samples.Load()
	fetchInto(t, v, a, itemRecords(a))
	v.Get(a)
	v.Share()
	if n := samples.Load() - before; n != 2 {
		t.Errorf("a reading query sampled the stamp %d times, want 2: at its first read and when it shares", n)
	}
}

// TestItemsShareNeverRewindsTheMemo: a view that samples "still current"
// and then loses the lock to a query on a newer stamp must not move the memo
// back to its own and drop that query's items. The stamp source steps back for
// one sample to stand in for that window.
func TestItemsShareNeverRewindsTheMemo(t *testing.T) {
	var now atomic.Uint64
	c := New(func() Stamp { return Stamp{Gen: now.Load()} })
	a, b := prov.Ref{Object: "/a"}, prov.Ref{Object: "/b"}
	slow := c.Items()
	fetchInto(t, slow, a, itemRecords(a))
	now.Store(1)
	fast := c.Items()
	fetchInto(t, fast, b, itemRecords(b))
	fast.Share()
	now.Store(0) // slow's check, sampled before fast's write landed
	slow.Share()
	now.Store(1)
	v := c.Items()
	if _, ok := v.Get(b); !ok {
		t.Error("a late Share under an older stamp emptied the memo")
	}
	if _, ok := v.Get(a); ok {
		t.Error("a reading taken under an older stamp was served at a newer one")
	}
}

// TestItemsPreferResidentSnapshot: with a snapshot warm the view answers
// every item from it — absent ones as known-empty.
func TestItemsPreferResidentSnapshot(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	if _, err := c.Graph(context.Background(), func(context.Context) (*prov.Graph, error) { return testGraph(2), nil }); err != nil {
		t.Fatal(err)
	}
	v := c.Items()
	if got, ok := v.Get(prov.Ref{Object: "/o1"}); !ok || len(got) != 1 {
		t.Fatalf("snapshot item: %v %v", got, ok)
	}
	if got, ok := v.Get(prov.Ref{Object: "/nosuch"}); !ok || got != nil {
		t.Fatalf("the snapshot knows every item; absent read as %v %v", got, ok)
	}
	gen.Bump()
	if _, ok := c.Items().Get(prov.Ref{Object: "/o1"}); ok {
		t.Error("an expired snapshot still served its items")
	}
}

// TestItemsOfDisabledCacheAreQueryScoped: the nil cache's view remembers its
// own query's fetches and nothing outlives it.
func TestItemsOfDisabledCacheAreQueryScoped(t *testing.T) {
	var c *Cache
	a := prov.Ref{Object: "/a"}
	v := c.Items()
	if _, ok := v.Get(a); ok {
		t.Fatal("an empty view knew an item")
	}
	v.Put(a, itemRecords(a))
	v.Share()
	if got, ok := v.Get(a); !ok || len(got) != 1 {
		t.Fatalf("the view forgot its own fetch: %v %v", got, ok)
	}
	if _, ok := c.Items().Get(a); ok {
		t.Error("a disabled cache carried an item across queries")
	}
}

// TestItemsConcurrentViewsDuringWrites: under -race, queries recording,
// sharing and reading items beside a writer never see another ref's records.
func TestItemsConcurrentViewsDuringWrites(t *testing.T) {
	var gen generation
	c := New(genStamp(&gen))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			gen.Bump()
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := c.Items()
				for i := 0; i < 8; i++ {
					ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/o%d", i))}
					got, ok := v.Get(ref)
					if !ok {
						v.Put(ref, itemRecords(ref))
					} else if len(got) != 1 || got[0].Subject != ref {
						t.Errorf("%s served %v", ref, got)
						return
					}
				}
				v.Share()
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
