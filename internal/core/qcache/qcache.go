// Package qcache is the query-performance subsystem shared by the three
// architectures. It caches three things, three instances of one per-stamp
// table (memo): all under one Stamp, all dropped wholesale when it moves, and
// each answering "is this still current?" in one place (memo.hit) for the
// run and for the planner's peek alike:
//
//   - the snapshot: the whole provenance graph, as one repository scan read
//     it (Graph), with singleflight coalescing so concurrent identical scans
//     share one cloud pass. The table still goes wholesale, but it may also
//     follow the store's own writes instead (Follow): when nothing but a
//     write section of this client moved the stamp, the snapshot moves with
//     it, the section's deltas pending, and the next read patches it through
//     the Patcher the build returned (PatchableGraph) — the S3-only store's
//     snapshot follows its acknowledged PUTs so. The cache counts those
//     patches itself (Stats.GraphPatches), apart from builds;
//   - the refs memo: indexed query results by descriptor key (Refs), computed
//     in the same flight;
//   - the item memo: the stored items the query path fetched one by one — an
//     ancestor walk's frontiers, pinned refs, full-projection output — read
//     through a per-query view (Items) that samples the stamp at its first
//     read and when the query shares its fetches, not per item, and never
//     for a query that reads no item.
//
// The third has a reader rule: queries only. Whatever verifies — a verified
// read, a Provenance lookup, an audit, a recovery or migration scan — reads
// what is stored, never what a query remembered.
//
// The paper concedes that querying is where the cloud architectures pay
// their price — S3-only "has to scan the whole repository" per query and
// SimpleDB "has to retrieve each item ... then lookup further ancestors"
// (§5) — but also notes that "the second phase can, of course, be executed
// from a cache". This package generalizes that observation: a repository
// that has not changed since the last scan can answer every query class
// from the cached snapshot at zero cloud ops.
//
// Invalidation is write-driven. Each store owns one Writes value, which
// samples its stamp, brackets its own write sections and bumps its write
// generation whenever a write could change query results (PutBatch, Sync,
// the WAL commit daemon's SimpleDB pushes, orphan-scan deletions). Cached
// state is keyed by the Stamp observed *before* the backing scan started,
// so a write that lands mid-scan invalidates the snapshot being built: the
// write's bump makes the next query observe a newer stamp and rebuild.
//
// Under eventual consistency a write-generation counter alone is not
// enough: a scan may have been served by a stale replica, and with no
// further writes the cache would pin that staleness forever, even after
// the region converges. The Stamp therefore carries a second component,
// the consistency epoch — the region's clock quantized by its propagation
// horizon. When simulated time passes the horizon (Settle, retry waits),
// the epoch advances and the snapshot expires. Staleness served from the
// cache is thereby bounded by what the backend itself may serve, plus at
// most one propagation horizon. Strongly consistent regions have a zero
// horizon and a constant epoch, so only writes invalidate.
package qcache

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/prov"
)

// Stamp identifies one cacheable repository state: a write generation plus
// the consistency epoch of the region.
type Stamp struct {
	Gen   uint64
	Epoch int64
}

// after reports whether s was sampled later than o on a moved repository:
// both components only ever grow.
func (s Stamp) after(o Stamp) bool { return s.Gen > o.Gen || s.Epoch > o.Epoch }

// Token renders the stamp as the opaque generation token pagination
// cursors bind to (core.Stamped).
func (s Stamp) Token() string { return fmt.Sprintf("%d.%d", s.Gen, s.Epoch) }

// StampFunc samples the current stamp. It must be cheap and safe for
// concurrent use.
type StampFunc func() Stamp

// Writes is one store's own-write bookkeeping on a simulated region: its
// stamp, its write generation, and the brackets around the write sections
// the store performs itself (Own, Cache.Follow), which split the region's
// mutations into this client's and everybody else's (Foreign). Mutations a
// *concurrent* foreign writer lands inside this client's window are
// misattributed as own: Foreign is a planner heuristic, not an audit log.
type Writes struct {
	cl       *cloud.Cloud
	horizon  int64
	gen, own atomic.Uint64
}

// NewWrites builds the bookkeeping for a store on cl. Mutations metered
// before it existed (a pre-populated shared region) count as foreign: the
// client's planner never observed them.
func NewWrites(cl *cloud.Cloud) *Writes {
	return &Writes{cl: cl, horizon: int64(cl.MaxDelay())}
}

// Stamp samples the store's stamp. The generation component is the sum of
// two monotonic counters — the store's own write generation and the region's
// metered mutation count — so the cache also invalidates when a *different*
// client of a shared region writes, which the store's bumps alone cannot
// see. The epoch component is the region's clock quantized by its
// propagation horizon (constant on strongly consistent regions).
func (w *Writes) Stamp() Stamp {
	st := Stamp{Gen: w.gen.Load() + regionWrites(w.cl)}
	if w.horizon > 0 {
		st.Epoch = w.cl.Clock.Now().UnixNano() / w.horizon
	}
	return st
}

// Bump moves the store's write generation, expiring everything cached at an
// earlier stamp. Stores bump on any write that could change query results;
// bumping more often than necessary costs cache misses, never staleness, so
// stores bump unconditionally — including on failed batches, whose partial
// effects may already be visible.
func (w *Writes) Bump() { w.gen.Add(1) }

// Own runs one of this client's write sections, attributing the mutations
// it meters to the client. Do not nest sections: attribution would
// double-count.
func (w *Writes) Own(f func() error) error {
	_, _, _, err := w.track(f)
	return err
}

// Foreign reports how many of the region's metered mutations this client
// did not perform itself (clamped at zero under concurrent-window
// misattribution).
func (w *Writes) Foreign() uint64 {
	total := regionWrites(w.cl)
	own := w.own.Load()
	return max(total, own) - own
}

// track runs f as an own write section, reading the region meter once
// before it and once after. It returns the stamps sampled around f as a
// region with no propagation delay stamps them, and how often f bumped.
func (w *Writes) track(f func() error) (before, after Stamp, bumps uint64, err error) {
	gen, writes := w.gen.Load(), regionWrites(w.cl)
	err = f()
	genAfter, writesAfter := w.gen.Load(), regionWrites(w.cl)
	w.own.Add(writesAfter - writes)
	return Stamp{Gen: gen + writes}, Stamp{Gen: genAfter + writesAfter}, genAfter - gen, err
}

// MutatingOps are the metered operations (Meter "Service/Name" keys) that
// can change what a provenance query observes. SQS traffic is absent
// deliberately: WAL messages are not query-visible until the commit
// daemon's S3/SimpleDB writes, which are listed.
var MutatingOps = []string{
	billing.S3.String() + "/PUT",
	billing.S3.String() + "/COPY",
	billing.S3.String() + "/DELETE",
	billing.SimpleDB.String() + "/PutAttributes",
	billing.SimpleDB.String() + "/BatchPutAttributes",
	billing.SimpleDB.String() + "/DeleteAttributes",
	billing.SimpleDB.String() + "/DeleteDomain",
}

// regionWrites counts every mutating operation metered on the region, by
// any client — a constant-work counter read, not a meter snapshot, since
// it runs on every stamp sample including warm hits. Monotonic, and
// queries perform none of the listed ops, so a scan never invalidates
// itself.
func regionWrites(cl *cloud.Cloud) uint64 {
	return uint64(cl.Meter.OpSum(MutatingOps))
}

// A Patcher is made by the build that read a snapshot, and knows what the
// snapshot was built from: it brings the snapshot forward with the store's
// own writes (Follow). The cache calls it under its lock, one call at a time,
// so its methods must not call the Cache.
type Patcher interface {
	// Patch returns base with deltas (Landed.Deltas, in landing order)
	// applied, leaving base to its readers (prov.Graph.Replace).
	Patch(base *prov.Graph, deltas []any) *prov.Graph
	// Room is how many pending deltas the snapshot takes: past it, a patch
	// would apply more than a rebuild reads.
	Room() int
}

// Landed is what one own write section landed: how many region mutations
// its landed writes metered, and its writes in landing order, decoded only
// if they extend a snapshot.
type Landed struct {
	Mutations uint64
	Deltas    func() ([]any, error)
}

// Stats counts cache outcomes; tests and benchmarks read it to prove that
// repeated queries stop touching the cloud.
type Stats struct {
	// GraphHits/GraphMisses count Graph calls served from / rebuilding the
	// snapshot. RefHits/RefMisses count Refs calls likewise.
	GraphHits, GraphMisses uint64
	RefHits, RefMisses     uint64
	// Coalesced counts calls that joined another caller's in-flight build
	// instead of issuing their own cloud pass.
	Coalesced uint64
	// GraphPatches counts the snapshots patched with the store's own writes
	// (Follow) instead of rebuilt, by the Graph call (not counted as a hit)
	// or Items view that read them first.
	GraphPatches uint64
}

// memo is one per-stamp table: every value in it was recorded under one
// stamp, and the whole table — values and the computations in flight for
// them — is dropped the moment a caller moves it to a later one: a write or
// an epoch advance invalidates wholesale, never key by key. The cache keeps
// three: the snapshot (one key), query results by descriptor key, and stored
// items by ref. Guarded by the Cache's mutex.
type memo[K comparable, V any] struct {
	stamp  Stamp
	vals   map[K]V
	flying map[K]*flight[V]
}

// flight is one computation in flight, shared by the callers waiting on it.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// hit returns key's value if it was recorded under stamp now: the one test
// of "still current" behind every run accessor and every planner's peek.
func (m *memo[K, V]) hit(now Stamp, key K) (V, bool) {
	if m.stamp != now {
		var zero V
		return zero, false
	}
	v, ok := m.vals[key]
	return v, ok
}

// at moves the table to stamp now, dropping everything recorded or registered
// under an earlier one, and reports whether the table is then at now: it only
// ever moves forward, so a caller that sampled its stamp and then lost the
// lock to one on a newer stamp leaves that one's values alone.
func (m *memo[K, V]) at(now Stamp) bool {
	if m.vals == nil || now.after(m.stamp) {
		m.stamp, m.vals, m.flying = now, make(map[K]V), make(map[K]*flight[V])
	}
	return m.stamp == now
}

// snapshot is the snapshot table's value: a graph as a build read it, the
// build's Patcher (nil: it follows nothing) and the deltas landed since, which
// the first reader applies (settle). graph and patcher never change.
type snapshot struct {
	graph   *prov.Graph
	patcher Patcher
	pending []any
}

// Cache holds one store's cached query state. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
// A nil *Cache is the disabled cache: Graph and Refs run their callback on
// every call, an Items view knows one query's own fetches only, the peeks
// report nothing resident and Stats reads zero.
//
// The cached *prov.Graph is shared between callers and must be treated as
// immutable; Graph's read methods are safe for concurrent readers.
type Cache struct {
	stamp StampFunc

	mu    sync.Mutex
	snap  memo[struct{}, *snapshot]
	refs  memo[string, []prov.Ref]
	items memo[prov.Ref, []prov.Record] // filled by Items.Share, never in flight
	stats Stats
}

// New builds a cache over the given stamp source.
func New(stamp StampFunc) *Cache { return &Cache{stamp: stamp} }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Enabled reports whether anything is ever cached. The unfiltered Q.1 scan
// asks: on a disabled cache it streams page by page instead of building a
// graph nothing would keep.
func (c *Cache) Enabled() bool { return c != nil }

// resident samples the stamp and reports whether m holds a value for key under
// it — a pure peek (no counters move, nothing builds): true exactly when the
// run accessor, called now, would count a hit.
func resident[K comparable, V any](c *Cache, m *memo[K, V], key K) bool {
	now := c.stamp()
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := m.hit(now, key)
	return ok
}

// Warm reports whether a graph snapshot for the current stamp is resident,
// patched or with the store's own writes pending. Query planners use it to
// predict that a scan-backed query will cost zero cloud ops.
func (c *Cache) Warm() bool { return c != nil && resident(c, &c.snap, struct{}{}) }

// HasRefs reports whether a memoized result for key is resident at the
// current stamp, for query planners.
func (c *Cache) HasRefs(key string) bool { return c != nil && resident(c, &c.refs, key) }

// Graph returns the provenance-graph snapshot for the current stamp,
// building it via build on a miss. The returned graph is shared: read-only.
func (c *Cache) Graph(ctx context.Context, build func(context.Context) (*prov.Graph, error)) (*prov.Graph, error) {
	return c.PatchableGraph(ctx, func(ctx context.Context) (*prov.Graph, Patcher, error) {
		g, err := build(ctx)
		return g, nil, err
	})
}

// PatchableGraph is Graph for a store whose snapshot follows its own writes:
// build also returns the Patcher that brings the graph forward (Follow).
func (c *Cache) PatchableGraph(ctx context.Context, build func(context.Context) (*prov.Graph, Patcher, error)) (*prov.Graph, error) {
	if c == nil {
		g, _, err := build(ctx)
		return g, err
	}
	served := func(s *snapshot) *snapshot {
		s, patched := c.settle(s)
		if !patched {
			c.stats.GraphHits++
		}
		return s
	}
	s, err := fly(ctx, c, &c.snap, struct{}{}, served, &c.stats.GraphMisses, func(ctx context.Context) (*snapshot, error) {
		g, p, err := build(ctx)
		return &snapshot{graph: g, patcher: p}, err
	})
	if err != nil {
		return nil, err
	}
	return s.graph, nil
}

// settle applies s's pending deltas, recording the patched snapshot in its
// place, and reports whether it patched. Under c.mu, on the current value.
func (c *Cache) settle(s *snapshot) (*snapshot, bool) {
	if len(s.pending) == 0 {
		return s, false
	}
	s = &snapshot{graph: s.patcher.Patch(s.graph, s.pending), patcher: s.patcher}
	c.snap.vals[struct{}{}] = s
	c.stats.GraphPatches++
	return s, true
}

// Follow runs an own write section (Writes.Own) that the snapshot may follow.
// If f succeeds, bumps once, and the stamp moves by exactly that bump plus
// the mutations f says it landed, on a region with no propagation delay (else
// a patched snapshot would be fresher than any scan), the snapshot resident
// before the section moves to the stamp after it with f's deltas pending, to
// be applied in one patch at the next read. Anything else — a foreign write
// inside the window, an ack-lost retry's extra mutation, a failed or
// overlapping section, more pending deltas than the snapshot has Room for —
// leaves the snapshot behind the stamp, and the next read rebuilds.
func (c *Cache) Follow(w *Writes, f func() (Landed, error)) error {
	var landed Landed
	before, after, bumps, err := w.track(func() (err error) {
		landed, err = f()
		return err
	})
	if err == nil && c != nil && w.horizon == 0 && bumps == 1 {
		c.extend(before, after, landed)
	}
	return err
}

// extend is Follow's move of the snapshot table from before to after.
func (c *Cache) extend(before, after Stamp, landed Landed) {
	if after != (Stamp{Gen: before.Gen + 1 + landed.Mutations, Epoch: before.Epoch}) {
		return
	}
	c.mu.Lock()
	s, ok := c.snap.hit(before, struct{}{})
	c.mu.Unlock()
	if !ok || s.patcher == nil {
		return
	}
	deltas, err := landed.Deltas()
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if now, _ := c.snap.hit(before, struct{}{}); now != s || len(s.pending)+len(deltas) > s.patcher.Room() {
		return
	}
	s.pending = append(s.pending, deltas...)
	c.snap.stamp = after // a table holding its value at before has no flights
}

// Refs memoizes one indexed query's result under key for the current
// stamp, computing it via compute on a miss. The returned slice is shared:
// callers must not mutate it (CopyRefs defends the public API surface).
func (c *Cache) Refs(ctx context.Context, key string, compute func(context.Context) ([]prov.Ref, error)) ([]prov.Ref, error) {
	if c == nil {
		return compute(ctx)
	}
	served := func(refs []prov.Ref) []prov.Ref {
		c.stats.RefHits++
		return refs
	}
	return fly(ctx, c, &c.refs, key, served, &c.stats.RefMisses, compute)
}

// fly is the run accessor of a table: key's value under the current stamp,
// computed on a miss; served counts a hit and returns what to serve.
// Concurrent callers with the same key and stamp share
// one computation (singleflight); a caller whose context ends while waiting
// detaches with its context's error, and one whose leader's context ended
// takes over. The stamp is sampled before the computation starts and again
// after it: the value is recorded only if both samples are the stamp the
// flight registered under, so a write landing mid-scan (which bumps the
// generation) leaves it unreachable for later queries, and a stale leader
// never clobbers what a newer one recorded.
func fly[K comparable, V any](ctx context.Context, c *Cache, m *memo[K, V], key K, served func(V) V, misses *uint64, compute func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		now := c.stamp()
		c.mu.Lock()
		if v, ok := m.hit(now, key); ok {
			v = served(v)
			c.mu.Unlock()
			return v, nil
		}
		if !m.at(now) {
			c.mu.Unlock()
			continue // sampled before a write another caller already saw
		}
		if f, ok := m.flying[key]; ok {
			c.stats.Coalesced++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue // the leader's context died, not ours: take over
			}
			return f.val, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		m.flying[key] = f
		*misses++
		c.mu.Unlock()

		f.val, f.err = compute(ctx)

		fresh := c.stamp()
		c.mu.Lock()
		if m.flying[key] == f { // else the table moved on, and the flight with it
			delete(m.flying, key)
			if f.err == nil && fresh == now {
				m.vals[key] = f.val
			}
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// Items is one query's view of the stored items the query path has already
// read: the resident snapshot when one is warm, else the query's own fetches
// (Put) and the per-stamp item memo earlier queries shared theirs into. The
// view opens at its first Get — one stamp sample and one look for the
// snapshot per query that reads items at all, none per item and none for a
// query that reads no item — so serving an item is a map lookup, and
// everything a view serves was observed under that one stamp or fetched by
// the query itself after it. A view of the nil (disabled) cache knows its own
// query's fetches only. One query owns a view: its methods must not run
// concurrently.
type Items struct {
	c       *Cache
	opened  bool
	stamp   Stamp
	graph   *prov.Graph // the snapshot resident at stamp, if any
	fetched map[prov.Ref][]prov.Record
}

// Items returns a view for one query.
func (c *Cache) Items() *Items { return &Items{c: c} }

// open samples the stamp and looks for the resident snapshot, patching it if
// the store's own writes are pending. It runs at the view's first Get, which
// precedes the query's first fetch: a write landing between the two moves
// the stamp, and the fetch is then not shared.
func (v *Items) open() {
	v.opened, v.stamp = true, v.c.stamp()
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	if s, ok := v.c.snap.hit(v.stamp, struct{}{}); ok {
		s, _ = v.c.settle(s)
		v.graph = s.graph
	}
}

// Get returns ref's records as the view knows them — nil for an item that
// was not visible when read — and whether it knows the item at all. The
// snapshot knows every item. The slice is shared: read-only.
func (v *Items) Get(ref prov.Ref) ([]prov.Record, bool) {
	if v.c != nil && !v.opened {
		v.open()
	}
	if v.graph != nil {
		return v.graph.Records(ref), true
	}
	if records, ok := v.fetched[ref]; ok || v.c == nil {
		return records, ok
	}
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	return v.c.items.hit(v.stamp, ref)
}

// Put records what a fetch issued by the view's query read for ref (nil: not
// visible), after the Get that missed it. The reading stays the query's own
// until Share.
func (v *Items) Put(ref prov.Ref, records []prov.Record) {
	if v.fetched == nil {
		v.fetched = make(map[prov.Ref][]prov.Record)
	}
	v.fetched[ref] = records
}

// Share publishes the query's fetches to the cache's item memo, once, when
// the query is done. Like a snapshot build, the readings are kept only if the
// stamp they were taken under is still current: a write that landed since may
// or may not be in them. And the memo only ever moves forward: a view that
// lost the race to a query on a newer stamp leaves that query's items alone.
func (v *Items) Share() {
	if !v.opened || len(v.fetched) == 0 || v.c.stamp() != v.stamp {
		return
	}
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	if v.c.items.at(v.stamp) {
		maps.Copy(v.c.items.vals, v.fetched)
	}
}

// CopyRefs returns a defensive copy of a shared result slice for handing
// across an API boundary.
func CopyRefs(refs []prov.Ref) []prov.Ref {
	if refs == nil {
		return nil
	}
	return append([]prov.Ref(nil), refs...)
}
