package qcache

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"passcloud/internal/prov"
)

// lookupRig is a cache over a stamp the test moves by hand, with builds that
// say under which generation they ran, so a served value can be dated.
type lookupRig struct {
	gen   Generation
	epoch atomic.Int64
	c     *Cache
}

func newLookupRig() *lookupRig {
	r := &lookupRig{}
	r.c = New(func() Stamp { return Stamp{Gen: r.gen.Load(), Epoch: r.epoch.Load()} })
	return r
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
// counts a hit and no miss, and false exactly when it counts a miss and no
// hit; an Items view finds the snapshot exactly when Warm does.
func (r *lookupRig) step(t *testing.T, rng *rand.Rand, keys []string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flavour := rng.Intn(4)
	switch op := rng.Intn(7); op {
	case 0:
		r.gen.Bump()
	case 1:
		r.epoch.Add(1)
	case 2, 3:
		warm, before := r.c.Warm(), r.c.Stats()
		_, err := r.graph(ctx, flavour, cancel)
		after := r.c.Stats()
		hit, miss := moved(before.GraphHits, before.GraphMisses, after.GraphHits, after.GraphMisses)
		if warm != hit || warm == miss || (hit && err != nil) {
			t.Fatalf("Warm() = %v, then Graph (flavour %d) moved hit=%v miss=%v, err %v", warm, flavour, hit, miss, err)
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
		if _, ok := v.Get(ref); warm && !ok {
			t.Fatal("Warm(), yet a view opened now does not read the snapshot")
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
