package sdbprov

import (
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

// This file implements Explain: the Table 3 cost model extended to
// arbitrary descriptors. Instead of closed-form formulas, the planner runs
// the native refs pipeline itself (core.NativeRefs: plan selection, phase
// order, chunk boundaries) on catalogExec, an executor that answers
// each primitive from the client-side catalog of observed writes and
// accounts the calls and pages the live executor would meter — so on a
// single-writer repository the predicted operation counts equal the
// metered ones.

// Explain implements core.Querier.
func (l *Layer) Explain(q prov.Query) core.QueryPlan {
	// Predictions are exact only while every region mutation came from
	// this client: the catalog never sees other writers' items.
	p := core.QueryPlan{Arch: "simpledb", Exact: l.writes.Foreign() == 0}
	return core.Explain(p, q, l, &l.pins, l.explainInto)
}

// explainInto fills the plan for a non-paginated descriptor.
func (l *Layer) explainInto(p *core.QueryPlan, q prov.Query) {
	switch strategyOf(q) {
	case onGraph:
		p.Strategy = "graph-walk"
		l.explainScan(p, "one query per item, evaluated on the materialized graph")
	case byScan:
		p.Strategy = "scan"
		l.explainScan(p, "Q.1 shape: one query per item")
	default:
		x := l.newCatalogExec(p, false)
		if l.memoizedRefs(q) {
			p.Strategy = "memo"
			p.Cached = true
			p.AddStep("-", "memo", 0, "refs memoized for this generation")
			x.mute = true
		}
		refs, _ := core.NativeRefs(x, q) // the catalog executor never fails
		p.Exact = p.Exact && !x.undecided
		if p.Strategy == "" {
			// No primitive ran: pinned refs under no filter, which cost
			// nothing to match (their items are fetched below, if asked for).
			p.Strategy = "pinned-refs"
		}
		if q.Projection == prov.ProjectFull {
			x.mute = false
			if !x.fetch(refs, "fetch matched items only") {
				p.AddStep("-", "snapshot", 0, "records already read: warm snapshot, item memo or an earlier step")
			}
		}
		// Cached or not is decided by the whole plan: memoized refs whose
		// items must be fetched are not, a walk over resident items is.
		p.Cached = p.EstOps == 0 && (p.Cached || x.warm)
	}
}

// explainScan predicts the full-repository pass (or reports the warm
// snapshot).
func (l *Layer) explainScan(p *core.QueryPlan, note string) {
	if l.cache.Warm() {
		p.Cached = true
		p.AddStep("-", "snapshot", 0, "warm snapshot: zero cloud ops")
		return
	}
	items := l.catalog.Items()
	p.AddStep("SimpleDB", "Select", core.PlanPages(items, sdb.SelectPageLimit), "enumerate items")
	p.AddStep("SimpleDB", "GetAttributes", int64(items), note)
	if gets := l.catalog.DecodeGets(); gets > 0 {
		p.AddStep("S3", "GET", gets, "resolve overflow/spill values")
	}
}

// memoizedRefs reports whether q's reference set is memoized at the
// current generation.
func (l *Layer) memoizedRefs(q prov.Query) bool { return l.cache.HasRefs(refsMemoKey(q)) }

// catalogExec runs the native refs pipeline against the planner catalog,
// accumulating predicted steps into p. mute suppresses the accounting
// (a memoized result makes a phase free; PlanQueryRefs wants refs only).
// items is the view the live run would open now, and like the live run the
// plan puts into it (never shared) the items a step pays to fetch, so a
// later step finds them there. warm records that the view answered for some
// item; undecided, that a match was one the catalog cannot decide.
type catalogExec struct {
	l         *Layer
	p         *core.QueryPlan
	mute      bool
	items     *qcache.Items
	warm      bool
	undecided bool
}

func (l *Layer) newCatalogExec(p *core.QueryPlan, mute bool) *catalogExec {
	return &catalogExec{l: l, p: p, mute: mute, items: l.cache.Items()}
}

func (x *catalogExec) step(service, op string, count int64, note string) {
	if !x.mute {
		x.p.AddStep(service, op, count, note)
	}
}

// fetch accounts reading refs' items the way the live run does (queryItem):
// one GetAttributes, plus the S3 GETs its decode issues, per item the query's
// view does not already hold. It reports whether anything is fetched at all.
func (x *catalogExec) fetch(refs []prov.Ref, note string) bool {
	if x.mute {
		return false
	}
	var missing []prov.Ref
	for _, r := range refs {
		if _, ok := x.items.Get(r); ok {
			x.warm = true
		} else {
			x.items.Put(r, nil)
			missing = append(missing, r)
		}
	}
	if len(missing) == 0 {
		return false
	}
	x.step("SimpleDB", "GetAttributes", int64(len(missing)), note)
	if gets := x.l.catalog.ItemGets(missing); gets > 0 {
		x.step("S3", "GET", gets, "resolve overflow/spill values of the fetched items")
	}
	return true
}

// shape names the plan after the first primitive it runs and records the
// backend expression that primitive pushes down.
func (x *catalogExec) shape(strategy, pushdown string) {
	if x.mute {
		return
	}
	if x.p.Strategy == "" {
		x.p.Strategy = strategy
	}
	if pushdown != "" {
		x.p.Pushdown = append(x.p.Pushdown, pushdown)
	}
}

func (x *catalogExec) InstancesOf(tool string) ([]prov.Ref, error) {
	x.shape("indexed-two-phase", instancesExpr(tool))
	instances := x.l.catalog.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: core.EscapeLiteral(tool)}})
	x.step("SimpleDB", "Query", core.PlanPages(len(instances), sdb.QueryPageLimit), "phase 1: instances of the tool")
	return instances, nil
}

func (x *catalogExec) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	x.shape("indexed-pushdown", pushdownExpr(filters))
	matches := x.l.catalog.MatchAttrs(storedFilters(filters))
	x.step("SimpleDB", "Query", core.PlanPages(len(matches), sdb.QueryPageLimit), "predicates evaluated inside the backend")
	return matches, nil
}

func (x *catalogExec) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	x.shape("indexed-prefix", startsWithExpr(prefix))
	level1 := x.l.catalog.DependentsOfPrefix(prefix)
	x.step("SimpleDB", "Query", core.PlanPages(len(level1), sdb.QueryPageLimit), "starts-with covers every matching version at once")
	return level1, nil
}

func (x *catalogExec) ListRefs() ([]prov.Ref, error) {
	x.shape("item-listing", "")
	x.step("SimpleDB", "Select", core.PlanPages(x.l.catalog.Items(), sdb.SelectPageLimit), "enumerate item names")
	return x.l.catalog.AllRefs(), nil
}

func (x *catalogExec) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	if len(filters) == 0 {
		return refs, nil
	}
	x.shape("pinned-refs", "")
	x.fetch(refs, "fetch pinned items to apply filters")
	return x.matchingStored(refs, filters), nil
}

// InputsOf predicts one level of the ancestor walk: the frontier's items
// fetched, their inputs — spilled ones included, the fetch decodes them —
// deduplicated in order.
func (x *catalogExec) InputsOf(refs []prov.Ref) ([]prov.Ref, error) {
	x.fetch(refs, "walk level: fetch the frontier's items")
	var inputs []prov.Ref
	for _, r := range refs {
		inputs = append(inputs, x.l.catalog.Inputs(r)...)
	}
	return core.DedupeRefs(inputs), nil
}

// SeedsOf costs the seed sub-query unless the live run would find it
// memoized, and only then names the traversal: a seed phase that ran keeps
// its own strategy.
func (x *catalogExec) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	seedsQ := core.StripTraversal(q)
	prev := x.mute
	if !x.mute && x.l.memoizedRefs(seedsQ) {
		x.step("-", "memo", 0, "seed query memoized for this generation")
		x.mute = true
	}
	seeds, err := core.NativeRefs(x, seedsQ)
	x.mute = prev
	if q.Direction == prov.TraverseAncestors {
		x.shape("indexed-walk", "")
	} else {
		x.shape("indexed-bfs", "")
	}
	return seeds, err
}

// DependentsOf predicts ⌈n/chunk⌉ queries, each paging on its own match
// count, results deduplicated in chunk order. When attributes ride along
// (QueryWithAttributes), decoding a pointer-encoded requested value costs
// an S3 GET per chunk response it appears in — exactly as the live
// per-chunk decode does, including re-decoding an item matched by several
// chunks.
func (x *catalogExec) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	chunkSize := x.l.queryChunk
	op, note := "Query", "dependents: chunked dependency queries"
	if len(riding) > 0 {
		op, note = "QueryWithAttributes", "phase 2: dependents, filter attributes riding along"
	}
	attrNames := make([]string, len(riding))
	for i, f := range riding {
		attrNames[i] = f.Attr
	}
	var ops, gets int64
	var out []prov.Ref
	for start := 0; start < len(refs); start += chunkSize {
		matches := x.l.catalog.Dependents(refs[start:min(start+chunkSize, len(refs))])
		ops += core.PlanPages(len(matches), sdb.QueryPageLimit)
		gets += x.l.catalog.AttrGets(matches, attrNames)
		out = append(out, matches...)
	}
	if len(refs) > 0 {
		x.step("SimpleDB", op, ops, note)
		if gets > 0 {
			x.step("S3", "GET", gets, "resolve pointer-encoded riding attribute values")
		}
	}
	return x.matchingStored(core.FilterRefPrefix(core.DedupeRefs(out), prefix), riding), nil
}

// matchingStored keeps, in place, the refs whose stored-form catalog
// records satisfy filters — the mirror of the live decoded comparison
// (stored and decoded equality agree because the escaping is injective). A
// value over the overflow threshold is stored as an S3 pointer the catalog
// cannot compare: such a match is undecided, and the plan not exact.
func (x *catalogExec) matchingStored(refs []prov.Ref, filters []prov.AttrFilter) []prov.Ref {
	if len(filters) == 0 {
		return refs
	}
	for _, f := range filters {
		x.undecided = x.undecided || len(refs) > 0 && !core.Pushable(f.Value)
	}
	stored := storedFilters(filters)
	out := refs[:0]
	for _, r := range refs {
		if core.MatchAll(x.l.catalog.Records(r), stored) {
			out = append(out, r)
		}
	}
	return out
}

// storedFilters converts decoded filter values to their stored forms.
func storedFilters(filters []prov.AttrFilter) []prov.AttrFilter {
	out := make([]prov.AttrFilter, len(filters))
	for i, f := range filters {
		out[i] = prov.AttrFilter{Attr: f.Attr, Value: core.EscapeLiteral(f.Value)}
	}
	return out
}

// PlanQueryRefs implements core.RefPlanner: the reference set Query(q)'s
// native plan would return, predicted from the client-side planner catalog
// without cloud traffic. ok is false for shapes with no native indexed
// plan (the full-graph fallbacks) — for those the shard router answers
// them on the member graphs — and for answers that hang on a match the
// catalog cannot decide. Predictions are best-effort when foreign writers
// have touched the region; Explain's Exact flag carries that caveat.
func (l *Layer) PlanQueryRefs(q prov.Query) ([]prov.Ref, bool) {
	if err := q.Validate(); err != nil {
		return nil, false
	}
	q.Limit, q.Cursor = 0, ""
	if !core.HasNativeRefs(q) {
		return nil, false
	}
	x := l.newCatalogExec(&core.QueryPlan{}, true)
	refs, _ := core.NativeRefs(x, q)
	return refs, !x.undecided
}
