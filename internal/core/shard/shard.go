// Package shard scales the provenance store out: a Router composes N
// independent store instances — any of the paper's three architectures —
// behind the same core.Store / core.Querier surface a single store
// presents, so everything above the storage layer (pass.System, the
// public Client, the harnesses) is shard-oblivious.
//
// Placement is consistent hashing of object IDs onto shards (a fixed
// ring of virtual nodes, so shard counts can change between deployments
// without reshuffling every object). All versions of one object land on
// one shard; transient ancestors (processes, pipes) travel with the file
// flush that triggered them, preserving each architecture's ride-along
// write amortization. Op parity with the unsharded store is exact for
// the S3-only and S3+SimpleDB write paths; batches that split across
// shards pay per-sub-batch envelope costs on the WAL architecture (a
// begin/commit pair each) and re-round SimpleDB's ceil(K/25) grouping,
// a few percent at small shard counts — the load harness reports it as
// the amplification column.
//
// Queries fan out and merge ref-sorted. Descriptors whose answer is
// shard-local — any filter combination without a Tool predicate, plus
// single-hop descendant traversals seeded by record-free filters (the
// Dependents idiom) — run each shard's native plan and merge the
// streams. Every other descriptor (tool queries, multi-hop lineage,
// ancestor walks) runs the refs pipeline the members run themselves
// (core.NativeRefs), each primitive one round (multihop.go): a round that
// searches goes to every shard, one that names its refs only to the shards
// likely to hold them, then to the rest for what they missed. A round goes
// to the members' own indexed plans when every member can plan references
// client-side (core.RefPlanner) and the descriptor has a native plan;
// otherwise it is answered from the member graphs, which the router asks
// every member for on each evaluation and keeps none of: a caching member
// answers from its own snapshot at zero cloud ops, an uncached one pays its
// scan, as it would unsharded. Explain composes
// honestly on every path: the plan is the sum of the per-shard plans —
// round by round, on the native path — the router will actually run.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"sort"
	"strings"
	"sync"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// Store is the composed per-shard contract: a queryable provenance store
// that can report its repository stamp (so the router can mint composite
// pagination cursors). All three architecture stores satisfy it.
type Store interface {
	core.Store
	core.Querier
	core.Stamped
}

// Config parameterizes a Router.
type Config struct {
	// Shards are the member stores, in ring order. Required, non-empty.
	// Members are typically bound to disjoint cloud namespaces (their own
	// bucket/domain/queue and billing key); the router never assumes they
	// share anything.
	Shards []Store
}

// virtualNodes is the number of ring points per shard. More points smooth
// placement balance at the cost of a larger ring; 256 keeps the worst shard
// within ~15% of the mean for workloads of a few dozen objects and within a
// few percent at scale.
const virtualNodes = 256

// Router is a sharded provenance store. It implements core.Store,
// core.Querier, core.Syncer and core.Stamped, and is safe for concurrent
// use.
type Router struct {
	shards []Store

	// ringMu guards the ring's owner assignment, the ring epoch and the
	// migration window state. Ring point hashes are immutable after New;
	// only owners change (FlipRing), so readers take the read lock.
	ringMu sync.RWMutex
	ring   []ringPoint
	// epoch counts ring reassignments. It joins the composite stamp (only
	// when non-zero, keeping never-migrated routers byte-identical to the
	// pre-epoch format), so a flip expires evicted cursor pins exactly
	// like a member write does.
	epoch int
	// mig is the active migration window, nil when idle. Published as an
	// immutable snapshot: transitions replace the pointer, never mutate a
	// published value, so query paths read it once per evaluation.
	mig *migration

	// refPlanned records whether every member implements core.RefPlanner,
	// the capability native rounds need to compose Explain round by round.
	// Mixed or incapable member sets answer every round from the member
	// graphs.
	refPlanned bool

	// pins retains paginated queries' evaluated result sets; cursors bind
	// to the concatenation of the member stamps, so a write to any shard
	// moves fresh queries to a new generation while resident pins keep
	// serving in-flight page sequences.
	pins core.Pins

	// memo retains evaluated answers under the composite stamp: a question
	// repeated on an unchanged namespace calls no member and builds nothing.
	memo resultMemo

	// mu serializes Sync against itself (member Syncs are already safe;
	// this just keeps marker sequences deterministic under concurrent
	// drains).
	mu sync.Mutex
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// New builds a router over the given shards.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: Config.Shards is required")
	}
	r := &Router{shards: cfg.Shards}
	r.refPlanned = true
	for _, s := range cfg.Shards {
		if _, ok := s.(core.RefPlanner); !ok {
			r.refPlanned = false
			break
		}
	}
	r.ring = make([]ringPoint, 0, len(cfg.Shards)*virtualNodes)
	for i := range cfg.Shards {
		for v := 0; v < virtualNodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: hash64(fmt.Sprintf("shard-%d/vn-%d", i, v)), shard: i})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].shard < r.ring[j].shard
	})
	return r, nil
}

// hash64 is the placement hash: FNV-1a finished with a murmur-style
// avalanche. Raw FNV of near-identical keys ("/t/w0/f1", "/t/w0/f2", …)
// clusters in a narrow band of the 64-bit space — whole workloads would
// land on one ring arc — so the finalizer spreads every bit before the
// ring lookup. Stable across processes (no per-run seeding): placement
// must agree between clients and across restarts.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns the i-th member store.
func (r *Router) Shard(i int) Store { return r.shards[i] }

// ShardFor places an object on the ring: the first virtual node at or
// after the object's hash owns it (wrapping). Every version of an object
// maps to the same shard.
func (r *Router) ShardFor(object prov.ObjectID) int {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	h := hash64(string(object))
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// Name implements core.Store.
func (r *Router) Name() string {
	return fmt.Sprintf("%s x%d", r.shards[0].Name(), len(r.shards))
}

// Properties implements core.Store: the conjunction of the members'
// guarantees. Causal ordering across shards is eventual — a sub-batch on
// one shard can land before its ancestors' sub-batch on another, and the
// flush layer's retry closes the gap — which matches the per-architecture
// "eventually recorded" reading of Table 1.
func (r *Router) Properties() core.Properties {
	p := core.Properties{Atomicity: true, Consistency: true, CausalOrdering: true, EfficientQuery: true}
	for _, s := range r.shards {
		sp := s.Properties()
		p.Atomicity = p.Atomicity && sp.Atomicity
		p.Consistency = p.Consistency && sp.Consistency
		p.CausalOrdering = p.CausalOrdering && sp.CausalOrdering
		p.EfficientQuery = p.EfficientQuery && sp.EfficientQuery
	}
	return p
}

// StampToken implements core.Stamped: the concatenation of every member's
// stamp. Any member write yields a new composite token. The separator
// must stay out of the cursor encoding's field alphabet ("|"). After a
// ring reassignment the token gains a leading ring-epoch component, so a
// flip moves the composite stamp even if no member wrote — evicted
// cursor pins then expire instead of silently re-evaluating against the
// new placement. Epoch zero omits the component, keeping a never-
// migrated router's tokens byte-identical to the pre-epoch format.
func (r *Router) StampToken() string {
	r.ringMu.RLock()
	epoch := r.epoch
	r.ringMu.RUnlock()
	parts := make([]string, len(r.shards))
	for i, s := range r.shards {
		parts[i] = s.StampToken()
	}
	token := strings.Join(parts, ",")
	if epoch > 0 {
		token = fmt.Sprintf("e%d,%s", epoch, token)
	}
	return token
}

// --- write path --------------------------------------------------------------

// routeBatch partitions a flush batch into per-shard sub-batches,
// preserving causal order within each. Persistent events place by object
// hash; transient events travel with the next persistent event of the
// batch (their triggering descendant, by PASS flush order), so
// architectures whose transients ride a carrier PUT keep that
// amortization shard-locally. Trailing transients follow the batch's last
// file; an all-transient batch routes by its first subject.
func (r *Router) routeBatch(batch []pass.FlushEvent) [][]pass.FlushEvent {
	subs := make([][]pass.FlushEvent, len(r.shards))
	var pending []pass.FlushEvent
	lastShard := -1
	for _, ev := range batch {
		if !ev.Persistent() {
			pending = append(pending, ev)
			continue
		}
		i := r.ShardFor(ev.Ref.Object)
		subs[i] = append(subs[i], pending...)
		subs[i] = append(subs[i], ev)
		pending = pending[:0]
		lastShard = i
	}
	if len(pending) > 0 {
		i := lastShard
		if i < 0 {
			i = r.ShardFor(pending[0].Ref.Object)
		}
		subs[i] = append(subs[i], pending...)
	}
	return subs
}

// PutBatch implements core.Store: the batch splits into per-shard
// sub-batches that execute concurrently, one call per shard. Failures
// merge into one typed core.PartialWriteError whose Landed set is the
// union of every shard's fully applied events (a shard that succeeded
// outright contributes its whole sub-batch), so the flush layer retries
// exactly the remainder, shard placement included.
func (r *Router) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	subs := r.routeBatch(batch)
	var active []int
	for i, sub := range subs {
		if len(sub) > 0 {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return nil
	}

	var mu sync.Mutex
	var landed []prov.Ref
	var errs []error
	err := core.RunLimited(ctx, len(active), len(r.shards), func(k int) error {
		i := active[k]
		sub := subs[i]
		err := r.shards[i].PutBatch(ctx, sub)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			for _, ev := range sub {
				landed = append(landed, ev.Ref)
			}
		default:
			var pw *core.PartialWriteError
			if errors.As(err, &pw) {
				landed = append(landed, pw.Landed...)
				err = pw.Err
			}
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
		// Never abort sibling sub-batches on one shard's failure: each
		// shard makes whatever progress it can, and the merged partial
		// error reports it all.
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if err != nil { // context cancellation from RunLimited itself
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		return nil
	}
	return core.PartialWrite(landed, errors.Join(errs...))
}

// Get implements core.Store: one read on the object's home shard.
func (r *Router) Get(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	return r.shards[r.ShardFor(object)].Get(ctx, object)
}

// Provenance implements core.Store. File versions live on their home
// shard; a transient subject's records live wherever its carrier file
// landed, so a home-shard miss falls back to probing the remaining
// shards concurrently — one extra round trip of latency instead of up to
// N-1 sequential ones.
func (r *Router) Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error) {
	mig := r.migSnapshot()
	home := r.ShardFor(ref.Object)
	records, err := r.shards[home].Provenance(ctx, ref)
	if err == nil || !errors.Is(err, core.ErrNotFound) {
		return records, err
	}
	others := make([]int, 0, len(r.shards)-1)
	for i := range r.shards {
		// Skip the non-authoritative copy of a mid-migration arc: the home
		// read above already consulted the authoritative side (the active
		// ring always points there), so the probe must not surface the
		// double-read window's other copy.
		if i != home && !mig.excluded(i, ref.Object) {
			others = append(others, i)
		}
	}
	var mu sync.Mutex
	var found []prov.Record
	ok := false
	err = core.RunLimited(ctx, len(others), len(r.shards), func(k int) error {
		records, err := r.shards[others[k]].Provenance(ctx, ref)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return nil
			}
			return err
		}
		mu.Lock()
		// Records exist on exactly one shard, so first-hit-wins is the
		// only hit; keep the guard anyway for defensive determinism.
		if !ok {
			found, ok = records, true
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ok {
		return found, nil
	}
	return nil, fmt.Errorf("%w: %s", core.ErrNotFound, ref)
}

// Sync implements core.Syncer: drain every member that buffers
// client-side state.
func (r *Router) Sync(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for i, s := range r.shards {
		if err := core.SyncStore(ctx, s); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// --- query path --------------------------------------------------------------

// distributable reports whether q's answer is the union of per-shard
// native evaluations. Subjects (and therefore their records and filter
// evidence) live on exactly one shard, so any pure filter section
// distributes — except Tool, whose evidence is the *input's* records,
// which may live on a different shard than the matching subject. A
// descendant traversal distributes only single-hop and only from
// record-free seeds (prefix or pinned refs): the edge to a child is
// stored with the child, but a second hop or a record-dependent seed
// filter would need another shard's records.
func distributable(q prov.Query) bool {
	if q.Tool != "" {
		return false
	}
	switch q.Direction {
	case prov.TraverseNone:
		return true
	case prov.TraverseDescendants:
		return q.Depth == 1 && len(q.AttrFilters()) == 0
	default: // ancestors: results are other shards' subjects
		return false
	}
}

// Query implements core.Querier. Entries stream ref-sorted (the fan-in
// merge order); paginated descriptors pin their evaluation under the
// composite stamp exactly like a single store does.
func (r *Router) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return core.Query(ctx, q, r, &r.pins, r.runQuery)
}

// runQuery streams one non-paginated evaluation.
func (r *Router) runQuery(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) {
	entries, err := r.evalAll(ctx, q)
	if err != nil {
		yield(core.Entry{}, err)
		return
	}
	for _, e := range entries {
		if !yield(e, nil) {
			return
		}
	}
}

// Router query strategies, in preference order: the single-round fan-in
// for shard-local descriptors, then the refs pipeline in rounds — on the
// members' native plans where every member can plan them, else on the
// member graphs, under the label reports count as the union regime.
const (
	planFanIn    = "fanout"
	planMultihop = "multihop"
	planGraphs   = "union-graph"
	planMemo     = "memo" // Explain's name for an answer evalAll would not evaluate
)

// strategyFor picks the evaluation strategy for a non-paginated
// descriptor. Query and Explain both route through it, so the plan always
// describes the path the run takes. What is not shard-local runs the refs
// pipeline; the strategy says where its rounds are answered. They go to the
// members' native plans when the members would run the pipeline themselves
// (core.HasNativeRefs: every round then has an indexed plan on every
// shard), with one router-side exception: an ancestor walk without pinned
// or tool seeds, whose seed section enumerates the namespace and whose
// frontiers then fetch that namespace's lineage item by item. Everything else
// is answered from the member graphs.
func (r *Router) strategyFor(q prov.Query) string {
	if distributable(q) {
		return planFanIn
	}
	wideWalk := q.Direction == prov.TraverseAncestors && len(q.Refs) == 0 && q.Tool == ""
	if r.refPlanned && core.HasNativeRefs(q) && !wideWalk {
		return planMultihop
	}
	return planGraphs
}

// evalAll materializes one non-paginated evaluation, ref-sorted with one
// entry per ref and shared (read-only): the answer remembered under the
// current composite stamp, else — and remembered in turn — what the strategy
// strategyFor picks computes. Only queries come here (the qcache reader rule).
func (r *Router) evalAll(ctx context.Context, q prov.Query) (entries []core.Entry, err error) {
	key, stamp := r.memoKey(q)
	if entries, ok := r.memo.get(key, stamp); ok {
		return entries, nil
	}
	switch r.strategyFor(q) {
	case planFanIn:
		entries, err = r.fanIn(ctx, q)
	case planMultihop:
		entries, err = r.runRounds(ctx, q)
	default:
		var parts []*prov.Graph
		if parts, err = r.memberGraphs(ctx); err == nil {
			var hide func(int, prov.ObjectID) bool
			if mig := r.migSnapshot(); mig != nil {
				hide = mig.excluded
			}
			entries = core.GraphEntries(parts, hide, q)
		}
	}
	if err == nil {
		r.memo.put(r, key, stamp, entries)
	}
	return entries, err
}

// resultMemo is the router's per-stamp result table, the shape of qcache's
// memo: every answer in it was evaluated under one composite stamp (the one
// cursors pin under), and it goes wholesale, never key by key — at the first
// answer recorded under another stamp, and at every migration transition.
type resultMemo struct {
	mu    sync.Mutex
	stamp string
	vals  map[string][]core.Entry
}

// memoKey samples, before an evaluation, the composite stamp and q's key
// under it — empty for what is never remembered: the unfiltered Q.1 (that is
// the namespace; the members hold it) and whatever is asked inside a
// migration window, whose state the answer depends on as well.
func (r *Router) memoKey(q prov.Query) (key, stamp string) {
	if q.IsQ1() || r.migSnapshot() != nil {
		return "", ""
	}
	return q.Key(), r.StampToken()
}

func (m *resultMemo) get(key, stamp string) ([]core.Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entries, ok := m.vals[key] // never the empty key
	return entries, ok && m.stamp == stamp
}

// put records an answer if nothing moved since stamp was sampled: a member
// write may or may not be in it, and a transition empties the table — after
// publishing its window, so the check under the table's lock leaves no gap.
func (m *resultMemo) put(r *Router, key, stamp string, entries []core.Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key == "" || r.migSnapshot() != nil || r.StampToken() != stamp {
		return
	}
	if m.vals == nil || m.stamp != stamp {
		m.stamp, m.vals = stamp, make(map[string][]core.Entry)
	}
	m.vals[key] = entries
}

// fanIn runs q on every shard's native engine concurrently and merges the
// results ref-sorted. Entries for the same ref from several shards (a
// pinned ref echoed by non-home shards) merge into one, their records
// concatenated; within one shard, a subject whose records streamed in
// pieces is merged the same way.
func (r *Router) fanIn(ctx context.Context, q prov.Query) ([]core.Entry, error) {
	perShard, err := r.fanOut(ctx, r.migSnapshot(), q)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, entries := range perShard {
		total += len(entries)
	}
	merged := core.NewEntryMerger(total)
	for _, entries := range perShard {
		for _, e := range entries {
			merged.Add(e)
		}
	}
	core.SortEntries(merged.Entries)
	return merged.Entries, nil
}

// fanOut runs q on every shard concurrently and returns each shard's
// entries, one per ref, less the copies mig's double-read window excludes.
func (r *Router) fanOut(ctx context.Context, mig *migration, q prov.Query) ([][]core.Entry, error) {
	perShard := make([][]core.Entry, len(r.shards))
	err := core.RunLimited(ctx, len(r.shards), len(r.shards), func(i int) error {
		entries, err := core.CollectMerged(r.shards[i].Query(ctx, q))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		perShard[i] = mig.filterEntries(i, entries)
		return nil
	})
	return perShard, err
}

// memberGraphs returns every member's graph at its current stamp, one
// concurrent core.ProvenanceGraph call per member: the member's warm or
// patched snapshot when it caches (zero cloud ops), its full native pass when
// not — exactly what the composite Explain predicts. The router keeps none of
// them; the graphs are shared: read-only.
func (r *Router) memberGraphs(ctx context.Context) ([]*prov.Graph, error) {
	parts := make([]*prov.Graph, len(r.shards))
	err := core.RunLimited(ctx, len(r.shards), len(r.shards), func(i int) (err error) {
		if parts[i], err = core.ProvenanceGraph(ctx, r.shards[i]); err != nil {
			err = fmt.Errorf("shard %d: %w", i, err)
		}
		return err
	})
	return parts, err
}

// Explain implements core.Querier: the plan is the sum of the per-shard
// plans the router will actually run — each shard's native plan for the
// descriptor on the fan-out path, round-by-round composed plans on native
// rounds, and for rounds on the member graphs each shard's Q.1 plan (the
// rounds themselves cost nothing) — with identical operation classes merged
// across shards within each round. Cached and Exact hold only when they hold
// on every shard. A paginated descriptor whose pin was evicted at an
// unchanged generation re-evaluates; its strategy carries a "pinned-reeval/"
// prefix so the output is distinguishable from a fresh query's plan.
func (r *Router) Explain(q prov.Query) core.QueryPlan {
	p := core.QueryPlan{Arch: r.Name(), Exact: true}
	return core.Explain(p, q, r, &r.pins, func(p *core.QueryPlan, stripped prov.Query) {
		strategy := r.strategyFor(stripped)
		if _, ok := r.memo.get(r.memoKey(stripped)); ok {
			strategy = planMemo
		}
		p.Strategy = strategy
		if q.Cursor != "" {
			// Evicted pin at an unchanged composite stamp: the plan costs
			// the re-evaluation, and says so.
			p.Strategy = "pinned-reeval/" + strategy
		}
		switch strategy {
		case planMemo:
			p.Cached = true
			p.AddStep("-", strategy, 0, "answer remembered for the current composite stamp: no member is asked")
		case planFanIn:
			p.AddStep("-", strategy, 0, fmt.Sprintf("%d shards: per-shard native plans, ref-sorted fan-in merge", len(r.shards)))
			mergePlans(p, r.memberPlans(stripped))
		case planMultihop:
			p.AddStep("-", strategy, 0, fmt.Sprintf("%d shards: seeds via native plans, then one indexed fan-out round per BFS level", len(r.shards)))
			r.explainMultihop(p, stripped)
		default:
			// The rounds on the member graphs cost nothing: the plan is what
			// fetching each member's graph costs, its Q.1.
			p.AddStep("-", strategy, 0, fmt.Sprintf("%d shards: fetch each member's graph (its Q.1), then answer every round on the member graphs", len(r.shards)))
			mergePlans(p, r.memberPlans(prov.Q1()))
		}
	})
}

// memberPlans is every member's plan for q, in shard order.
func (r *Router) memberPlans(q prov.Query) []core.QueryPlan {
	plans := make([]core.QueryPlan, len(r.shards))
	for i, s := range r.shards {
		plans[i] = s.Explain(q)
	}
	return plans
}

// mergePlans folds per-shard plans into the composite: steps with the
// same (service, op) sum their counts, pushdown expressions deduplicate,
// and the composite is cached/exact only if every member is.
func mergePlans(p *core.QueryPlan, plans []core.QueryPlan) {
	cached := foldPlans(p, plans)
	p.Cached = cached && p.EstOps == 0
}

// foldPlans merges one round of per-shard plans into the composite
// without settling the composite's Cached bit, so multi-round plans can
// fold several rounds and AND the results: steps with the same (service,
// op) sum their counts, pushdown expressions deduplicate, Exact holds
// only if every member is exact. Returns whether every member plan was
// cached.
func foldPlans(p *core.QueryPlan, plans []core.QueryPlan) bool {
	type key struct{ service, op string }
	order := make([]key, 0, 8)
	steps := make(map[key]core.PlanStep)
	cached := true
	seenPush := make(map[string]bool)
	for _, sp := range plans {
		cached = cached && sp.Cached
		p.Exact = p.Exact && sp.Exact
		for _, expr := range sp.Pushdown {
			if !seenPush[expr] {
				seenPush[expr] = true
				p.Pushdown = append(p.Pushdown, expr)
			}
		}
		for _, st := range sp.Steps {
			k := key{st.Service, st.Op}
			if prev, ok := steps[k]; ok {
				prev.Count += st.Count
				steps[k] = prev
				continue
			}
			order = append(order, k)
			steps[k] = st
		}
	}
	for _, k := range order {
		st := steps[k]
		p.AddStep(st.Service, st.Op, st.Count, st.Note)
	}
	return cached
}

var (
	_ core.Store   = (*Router)(nil)
	_ core.Querier = (*Router)(nil)
	_ core.Syncer  = (*Router)(nil)
	_ core.Stamped = (*Router)(nil)
)
