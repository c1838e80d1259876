package qcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"passcloud/internal/prov"
)

// lookupRig is a cache over a stamp the test moves by hand, with builds that
// say under which generation they ran, so a served value can be dated. A
// chained rig also keeps a repository — the writes landed so far, each one
// metered mutation — which its builds read whole and its snapshots follow
// (PatchableGraph, with rigPatcher) through the own write sections its steps
// run.
type lookupRig struct {
	gen     generation
	epoch   atomic.Int64
	c       *Cache
	chained bool

	mu     sync.Mutex
	writes []prov.Ref
}

func newLookupRig() *lookupRig {
	r := &lookupRig{}
	r.c = New(r.stamp)
	return r
}

func newChainRig() *lookupRig {
	r := newLookupRig()
	r.chained = true
	return r
}

func (r *lookupRig) stamp() Stamp { return Stamp{Gen: r.gen.Load(), Epoch: r.epoch.Load()} }

// rigRoom is how many pending writes a chained rig's snapshot takes.
const rigRoom = 3

// rigPatcher adds each landed write's subject to the snapshot.
type rigPatcher struct{}

func (rigPatcher) Patch(base *prov.Graph, deltas []any) *prov.Graph {
	touched := make(map[prov.Ref][]prov.Record, len(deltas))
	for _, d := range deltas {
		touched[d.(prov.Ref)] = itemRecords(d.(prov.Ref))
	}
	return base.Replace(touched)
}

func (rigPatcher) Room() int { return rigRoom }

// write lands one write in the repository: one metered mutation.
func (r *lookupRig) write() prov.Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref := prov.Ref{Object: "/w", Version: prov.Version(len(r.writes))}
	r.writes = append(r.writes, ref)
	r.gen.Bump()
	return ref
}

// scan is what a build reads: the repository as it stands.
func (r *lookupRig) scan() []prov.Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.writes)
}

// ownSection is one own write section of k writes, moving the stamp by its
// bump and those mutations; inside is run between the writes and the bump (a
// foreign write, an epoch advance, another section), and the section then
// offers its writes to the snapshot.
func (r *lookupRig) ownSection(k int, inside func()) {
	before := r.stamp()
	var deltas []any
	for range k {
		deltas = append(deltas, r.write())
	}
	if inside != nil {
		inside()
	}
	r.gen.Bump()
	r.c.extend(before, r.stamp(), Landed{Mutations: uint64(k), Deltas: func() ([]any, error) { return deltas, nil }})
}

// holdsRepository fails unless g's written subjects are the repository's.
func (r *lookupRig) holdsRepository(t *testing.T, g *prov.Graph, what string) {
	t.Helper()
	var got []prov.Ref
	for _, ref := range g.Subjects() {
		if ref.Object == "/w" {
			got = append(got, ref)
		}
	}
	prov.SortRefs(got)
	if want := r.scan(); !slices.Equal(got, want) {
		t.Fatalf("%s holds writes %v, the repository %v", what, got, want)
	}
}

// build returns a computation of the given flavour: 0 succeeds, 1 fails, 2 is
// overtaken by a write while it runs, 3 is a leader whose own context ends
// mid-computation. builtAt is the generation it started under.
func (r *lookupRig) build(flavour int, cancel context.CancelFunc) (run func(context.Context) (uint64, error)) {
	return func(ctx context.Context) (uint64, error) {
		builtAt := r.gen.Load()
		runtime.Gosched() // let a burst's other callers find this one in flight
		switch flavour {
		case 1:
			return 0, errors.New("scan failed")
		case 2:
			r.gen.Bump()
		case 3:
			cancel()
			return 0, ctx.Err()
		}
		return builtAt, nil
	}
}

func datedGraph(gen uint64) *prov.Graph {
	g := prov.NewGraph()
	g.Add(prov.NewString(prov.Ref{Object: "/built-at", Version: prov.Version(gen)}, prov.AttrType, prov.TypeFile))
	return g
}

func (r *lookupRig) graph(ctx context.Context, flavour int, cancel context.CancelFunc) (*prov.Graph, error) {
	run := r.build(flavour, cancel)
	if r.chained {
		return r.c.PatchableGraph(ctx, func(ctx context.Context) (*prov.Graph, Patcher, error) {
			writes := r.scan()
			gen, err := run(ctx)
			if err != nil {
				return nil, nil, err
			}
			g := datedGraph(gen)
			for _, ref := range writes {
				g.AddAll(itemRecords(ref))
			}
			return g, rigPatcher{}, nil
		})
	}
	return r.c.Graph(ctx, func(ctx context.Context) (*prov.Graph, error) {
		gen, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return datedGraph(gen), nil
	})
}

func (r *lookupRig) refs(ctx context.Context, key string, flavour int, cancel context.CancelFunc) ([]prov.Ref, error) {
	run := r.build(flavour, cancel)
	return r.c.Refs(ctx, key, func(ctx context.Context) ([]prov.Ref, error) {
		gen, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return []prov.Ref{{Object: prov.ObjectID(key), Version: prov.Version(gen)}}, nil
	})
}

// moved reports which of a hit and a miss counter one accessor call moved.
func moved(hitsBefore, missesBefore, hitsAfter, missesAfter uint64) (hit, miss bool) {
	return hitsAfter == hitsBefore+1 && missesAfter == missesBefore,
		missesAfter == missesBefore+1 && hitsAfter == hitsBefore
}

// step runs one random single-threaded operation and checks the shared
// lookup: a peek answers true exactly when the accessor call that follows it
// counts a hit (or, on a chained rig, a patch) and no miss, and false exactly
// when it counts a miss and no hit; an Items view finds the snapshot exactly
// when Warm does. A chained rig also runs own write sections, exact or broken
// (a foreign write or an epoch advance inside, an overlapping section, more
// writes than the snapshot has room for), and foreign writes; whatever its
// snapshot serves holds the repository's writes, patched or scanned.
func (r *lookupRig) step(t *testing.T, rng *rand.Rand, keys []string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flavour := rng.Intn(4)
	ops := 7
	if r.chained {
		ops = 13 // 11 and 12 read the snapshot too, and mostly build cleanly
		if rng.Intn(2) == 0 {
			flavour = 0
		}
	}
	switch op := rng.Intn(ops); op {
	case 0:
		r.gen.Bump()
	case 1:
		r.epoch.Add(1)
	case 2, 3, 11, 12:
		warm, before := r.c.Warm(), r.c.Stats()
		g, err := r.graph(ctx, flavour, cancel)
		after := r.c.Stats()
		hit, miss := moved(before.GraphHits+before.GraphPatches, before.GraphMisses, after.GraphHits+after.GraphPatches, after.GraphMisses)
		if warm != hit || warm == miss || (hit && err != nil) {
			t.Fatalf("Warm() = %v, then Graph (flavour %d) moved hit=%v miss=%v, err %v", warm, flavour, hit, miss, err)
		}
		if r.chained && err == nil {
			r.holdsRepository(t, g, fmt.Sprintf("Graph (warm %v, patched %v)", warm, after.GraphPatches > before.GraphPatches))
		}
		if resident := r.c.Warm(); resident != (warm || (flavour == 0 && err == nil)) {
			t.Fatalf("after Graph (flavour %d, was warm %v): Warm() = %v", flavour, warm, resident)
		}
	case 4, 5:
		key := keys[rng.Intn(len(keys))]
		has, before := r.c.HasRefs(key), r.c.Stats()
		_, err := r.refs(ctx, key, flavour, cancel)
		after := r.c.Stats()
		hit, miss := moved(before.RefHits, before.RefMisses, after.RefHits, after.RefMisses)
		if has != hit || has == miss || (hit && err != nil) {
			t.Fatalf("HasRefs(%q) = %v, then Refs (flavour %d) moved hit=%v miss=%v, err %v", key, has, flavour, hit, miss, err)
		}
		if resident := r.c.HasRefs(key); resident != (has || (flavour == 0 && err == nil)) {
			t.Fatalf("after Refs(%q) (flavour %d, had %v): HasRefs = %v", key, flavour, has, resident)
		}
	case 6:
		warm := r.c.Warm()
		v := r.c.Items()
		ref := prov.Ref{Object: prov.ObjectID(keys[rng.Intn(len(keys))])}
		if writes := r.scan(); warm && len(writes) > 0 {
			ref = writes[rng.Intn(len(writes))]
		}
		if records, ok := v.Get(ref); warm && !ok {
			t.Fatal("Warm(), yet a view opened now does not read the snapshot")
		} else if warm && ref.Object == "/w" && len(records) == 0 {
			t.Fatalf("Warm(), yet a view opened now reads no records for the write %s", ref)
		} else if !ok {
			v.Put(ref, itemRecords(ref))
			if flavour == 2 {
				r.gen.Bump()
			}
			v.Share()
			if _, ok := r.c.Items().Get(ref); ok != (flavour != 2) {
				t.Fatalf("shared fetch (overtaken by a write: %v) then served: %v", flavour == 2, ok)
			}
		}
	case 7, 8:
		r.ownSection(1+rng.Intn(2), nil)
	case 9:
		switch rng.Intn(4) {
		case 0:
			r.ownSection(1, func() { r.write() }) // a foreign write inside the window
		case 1:
			r.ownSection(1, func() { r.epoch.Add(1) })
		case 2:
			r.ownSection(1, func() { r.ownSection(1, nil) }) // overlapping sections
		case 3:
			r.ownSection(rigRoom+1, nil) // more writes than the snapshot takes
		}
		if r.c.Warm() {
			t.Fatal("a broken own section left the snapshot current")
		}
	case 10:
		r.write() // a foreign write
	}
}

// TestPeeksAgreeWithAccessors: randomized, single-threaded — generation bumps,
// epoch advances, Graph, Refs and Items calls whose computations succeed,
// fail, are overtaken by a write or lose their context. Warm, HasRefs and an
// Items view read the lookup the accessors hit on, so none can disagree with
// the call it predicts. The Stats totals per seed are the ones the two
// hand-written leader/follower loops counted on the same sequences (recorded
// at dbee2b0, where this test passes as it stands).
func TestPeeksAgreeWithAccessors(t *testing.T) {
	want := map[int64]Stats{
		1: {GraphHits: 47, GraphMisses: 195, RefHits: 13, RefMisses: 202},
		2: {GraphHits: 33, GraphMisses: 179, RefHits: 16, RefMisses: 217},
		3: {GraphHits: 50, GraphMisses: 188, RefHits: 19, RefMisses: 222},
	}
	for seed, total := range want {
		r := newLookupRig()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			r.step(t, rng, []string{"/a", "/b", "/c"})
		}
		if got := r.c.Stats(); got != total {
			t.Errorf("seed %d: Stats %+v, want the parent's %+v", seed, got, total)
		}
	}
}

// TestChainPeeksAgreeWithAccessors: the same randomized agreement on a rig
// whose snapshot follows its own write sections. Warm predicts exactly
// whether the next Graph is a hit or a patch, a view opened while it reads
// true reads the patched snapshot, and every snapshot served holds what a
// scan of the repository would: a chain that is extended by an exact own
// section and broken by everything else never serves a write short.
func TestChainPeeksAgreeWithAccessors(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := newChainRig()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			r.step(t, rng, []string{"/a", "/b", "/c"})
		}
		if st := r.c.Stats(); st.GraphPatches == 0 || st.GraphHits == 0 || st.GraphMisses == 0 {
			t.Errorf("seed %d: Stats %+v; want hits, patches and builds", seed, st)
		}
	}
}

// TestChainCountsEveryGraphCallOnce: concurrent Graph callers (run under
// -race) — builds that succeed, fail or are overtaken by a write — beside a
// writer running own sections, exact and broken, and foreign writes. Every
// Graph call is counted exactly once, as a hit, a build, a patch or a
// coalesced call, and once the writer is done the snapshot holds the
// repository's writes.
func TestChainCountsEveryGraphCallOnce(t *testing.T) {
	r := newChainRig()
	var calls atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				r.c.Warm()
				calls.Add(1)
				_, _ = r.graph(context.Background(), rng.Intn(3), nil)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			switch rng.Intn(6) {
			case 0:
				r.write()
			case 1:
				r.ownSection(1, func() { r.write() })
			case 2:
				r.ownSection(1, func() { r.ownSection(1, nil) })
			default:
				r.ownSection(1, nil)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	st := r.c.Stats()
	if counted := st.GraphHits + st.GraphMisses + st.GraphPatches + st.Coalesced; counted != calls.Load() {
		t.Errorf("%d Graph calls, %d counted: %+v", calls.Load(), counted, st)
	}
	g, err := r.graph(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.holdsRepository(t, g, "the snapshot after the writer")
}

// TestPeeksAgreeWithAccessorsBetweenBursts: the same agreement with concurrent
// callers (run under -race). In each burst several goroutines call Graph and
// Refs — some computations fail, some leaders lose their context and hand
// over to a waiter — while a writer moves the stamp; nothing served is older
// than the generation its caller saw before asking, and every call is counted
// once as a hit or a miss or, at least once, as coalesced. Between bursts the
// cache is quiescent and every peek must again predict the next accessor call.
func TestPeeksAgreeWithAccessorsBetweenBursts(t *testing.T) {
	r := newLookupRig()
	keys := []string{"/a", "/b"}
	rng := rand.New(rand.NewSource(5))
	var calls, failed atomic.Uint64
	for burst := 0; burst < 40; burst++ {
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 20; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					flavour := []int{0, 0, 0, 1, 3}[rng.Intn(5)]
					sawGen := r.gen.Load()
					var builtAt prov.Version
					var err error
					calls.Add(1)
					if rng.Intn(2) == 0 {
						var g *prov.Graph
						if g, err = r.graph(ctx, flavour, cancel); err == nil {
							builtAt = g.Subjects()[0].Version
						}
					} else {
						var refs []prov.Ref
						if refs, err = r.refs(ctx, keys[rng.Intn(len(keys))], flavour, cancel); err == nil {
							builtAt = refs[0].Version
						}
					}
					cancel()
					if err != nil {
						failed.Add(1)
					} else if uint64(builtAt) < sawGen {
						t.Errorf("served a value built at generation %d to a caller that had seen %d", builtAt, sawGen)
					}
				}
			}(int64(burst*100 + w))
		}
		for i := 0; i < 3; i++ {
			r.gen.Bump()
		}
		wg.Wait()
		for i := 0; i < 10; i++ {
			r.step(t, rng, keys)
		}
	}
	st := r.c.Stats()
	if counted := st.GraphHits + st.GraphMisses + st.RefHits + st.RefMisses + st.Coalesced; counted < calls.Load()-failed.Load() {
		t.Errorf("%d successful calls, only %d counted: %+v", calls.Load()-failed.Load(), counted, st)
	}
}
